package repro

// Golden coverage of the back end: for every internal/bench kernel, the
// full Titan disassembly at ScalarOptions and FullOptions plus the fast
// engine's cycles and flops at one and four processors. The list
// scheduler, peephole, disassembler and decode-time timing table all
// read the ISA's op table, so any drift in that table shows up here as a
// changed listing or cycle count. Regenerate after an intentional
// change:
//
//	UPDATE_GOLDEN=1 go test -run TestKernelAsmGolden .

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/driver"
	"repro/internal/titan"
)

// asmGoldenKernels is every kernel the bench package defines, at the
// sizes the differential suites use.
func asmGoldenKernels() []bench.Workload {
	ws := append(eseriesWorkloads(), doacrossWorkloads()...)
	ws = append(ws, maskedWorkloads()...)
	return append(ws, bench.SyntheticDoall(2048, 4))
}

func TestKernelAsmGolden(t *testing.T) {
	configs := []struct {
		name string
		opts driver.Options
	}{
		{"scalar", driver.ScalarOptions()},
		{"full", driver.FullOptions()},
	}
	for _, w := range asmGoldenKernels() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			var sb strings.Builder
			for _, c := range configs {
				res, err := driver.Compile(w.Src, c.opts)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				fmt.Fprintf(&sb, "== %s ==\n%s", c.name, driver.Disassemble(res))
				for _, procs := range []int{1, 4} {
					r, err := titan.NewMachine(res.Machine, procs).Run("main")
					if err != nil {
						t.Fatalf("%s p=%d: %v", c.name, procs, err)
					}
					fmt.Fprintf(&sb, "== %s p=%d cycles=%d flops=%d ==\n", c.name, procs, r.Cycles, r.FlopCount)
				}
			}
			got := sb.String()
			path := filepath.Join("testdata", "asm", w.Name+".golden")
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden %s (run with UPDATE_GOLDEN=1): %v", path, err)
			}
			if string(want) != got {
				t.Errorf("assembly or cycles for %s drifted from %s (rerun with UPDATE_GOLDEN=1 and diff)", w.Name, path)
			}
		})
	}
}
