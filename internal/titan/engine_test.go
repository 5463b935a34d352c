package titan

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// forceGoroutineRegions makes parallel regions fan out goroutines even
// when the test host has a single core, so the concurrent join path is
// always exercised.
func forceGoroutineRegions(t *testing.T) {
	t.Helper()
	old := engineHostParallelism
	engineHostParallelism = MaxProcessors
	t.Cleanup(func() { engineHostParallelism = old })
}

// diffRun executes the same program on the fast engine and the reference
// interpreter (fresh Machine each, identical seeding) and requires a
// bit-identical Result and final memory image.
func diffRun(t *testing.T, mk func() *Program, seed func(*Machine), procs int) Result {
	t.Helper()
	mf := NewMachine(mk(), procs)
	mr := NewMachine(mk(), procs)
	if seed != nil {
		seed(mf)
		seed(mr)
	}
	rf, errF := mf.runFastEntry("main")
	rr, errR := mr.RunReference("main")
	if (errF == nil) != (errR == nil) {
		t.Fatalf("engine err %v, reference err %v", errF, errR)
	}
	if errF != nil {
		if errF.Error() != errR.Error() {
			t.Fatalf("engine err %q, reference err %q", errF, errR)
		}
		return rf
	}
	if rf != rr {
		t.Fatalf("engine %+v != reference %+v", rf, rr)
	}
	if string(mf.mem) != string(mr.mem) {
		t.Fatal("final memory images differ")
	}
	return rf
}

// TestEngineDifferentialScalar covers the scalar ALU, control flow, and
// calls: a loop computing triangular numbers through a register-windowed
// helper, with compare+branch pairs the decoder fuses.
func TestEngineDifferentialScalar(t *testing.T) {
	mk := func() *Program {
		return &Program{
			Funcs: map[string]*Func{
				"main": {Name: "main", Instrs: []Instr{
					{Op: OpLdi, Rd: 10, Imm: 0},  // i
					{Op: OpLdi, Rd: 11, Imm: 0},  // s
					{Op: OpLdi, Rd: 12, Imm: 50}, // n
					// L: s += add1(i); i++; if i < n goto L
					{Op: OpMov, Rd: RegArg0, Rs1: 10},
					{Op: OpCall, Sym: "add1"},
					{Op: OpAdd, Rd: 11, Rs1: 11, Rs2: RegRetInt},
					{Op: OpAddi, Rd: 10, Rs1: 10, Imm: 1},
					{Op: OpCmpLt, Rd: 13, Rs1: 10, Rs2: 12},
					{Op: OpBnez, Rs1: 13, Sym: "L"},
					{Op: OpMov, Rd: RegRetInt, Rs1: 11},
					{Op: OpRet},
				}, Labels: map[string]int{"L": 3}},
				"add1": {Name: "add1", Instrs: []Instr{
					{Op: OpAddi, Rd: RegRetInt, Rs1: RegArg0, Imm: 1},
					{Op: OpRet},
				}, Labels: map[string]int{}},
			},
			MemSize: 1 << 20,
		}
	}
	res := diffRun(t, mk, nil, 1)
	if res.ExitCode != 50*51/2 {
		t.Errorf("exit %d", res.ExitCode)
	}
}

// TestEngineDifferentialVector covers the bulk kernels against the
// per-element reference: contiguous and strided f32/f64/i32 loads and
// stores, vector-vector and vector-scalar arithmetic, vmov/vbcast, and
// overlapping register windows (the forward-order aliasing case).
func TestEngineDifferentialVector(t *testing.T) {
	mk := func() *Program {
		return mkProg([]Instr{
			{Op: OpLdi, Rd: 9, Imm: 32},
			{Op: OpVsetl, Rs1: 9},
			{Op: OpLdi, Rd: 10, Imm: 4096}, // f32 array
			{Op: OpLdi, Rd: 11, Imm: 8192}, // f64 array
			{Op: OpLdi, Rd: 12, Imm: 4},    // f32 stride
			{Op: OpLdi, Rd: 13, Imm: 8},    // f64 stride
			{Op: OpLdi, Rd: 14, Imm: 16},   // strided
			{Op: OpFldi, Rd: 20, FImm: 1.5},

			{Op: OpVld, Rd: 0, Rs1: 10, Rs2: 12, Imm: ElemF32},
			{Op: OpVld, Rd: 64, Rs1: 11, Rs2: 13, Imm: ElemF64},
			{Op: OpVld, Rd: 128, Rs1: 10, Rs2: 14, Imm: ElemI32},
			{Op: OpVadd, Rd: 192, Rs1: 0, Rs2: 64},
			{Op: OpVmul, Rd: 256, Rs1: 192, Rs2: 128},
			{Op: OpVdiv, Rd: 320, Rs1: 256, Rs2: 64},
			{Op: OpVadds, Rd: 384, Rs1: 320, Rs2: 20},
			{Op: OpVsubsr, Rd: 448, Rs1: 384, Rs2: 20},
			{Op: OpVdivsr, Rd: 512, Rs1: 384, Rs2: 20},
			// Overlapping windows: vmov and vadd where dst overlaps src.
			{Op: OpVmov, Rd: 8, Rs1: 0},
			{Op: OpVadd, Rd: 4, Rs1: 0, Rs2: 8},
			{Op: OpVbcast, Rd: 576, Rs1: 20},
			// Store back, contiguous and strided.
			{Op: OpVst, Rd: 448, Rs1: 10, Rs2: 12, Imm: ElemF32},
			{Op: OpVst, Rd: 512, Rs1: 11, Rs2: 13, Imm: ElemF64},
			{Op: OpVst, Rd: 4, Rs1: 10, Rs2: 14, Imm: ElemI32},
			{Op: OpRet},
		}, nil)
	}
	seed := func(m *Machine) {
		for i := int64(0); i < 130; i++ {
			putF32(m.mem, 4096+4*i, float32(i)*0.5+1)
		}
		for i := int64(0); i < 32; i++ {
			binaryPutF64(m.mem, 8192+8*i, float64(i)*1.25+2)
		}
	}
	res := diffRun(t, mk, seed, 1)
	if res.FlopCount == 0 {
		t.Error("no flops counted")
	}
}

// TestEngineDifferentialVRFWrap drives vector ops whose register windows
// wrap around the end (or start) of the register file, exercising the
// slow paths.
func TestEngineDifferentialVRFWrap(t *testing.T) {
	mk := func() *Program {
		return mkProg([]Instr{
			{Op: OpLdi, Rd: 9, Imm: 32},
			{Op: OpVsetl, Rs1: 9},
			{Op: OpLdi, Rd: 10, Imm: 4096},
			{Op: OpLdi, Rd: 12, Imm: 4},
			{Op: OpFldi, Rd: 20, FImm: 0.25},
			{Op: OpVld, Rd: VRFWords - 5, Rs1: 10, Rs2: 12, Imm: ElemF32},
			{Op: OpVadds, Rd: VRFWords - 17, Rs1: VRFWords - 5, Rs2: 20},
			{Op: OpVmov, Rd: VRFWords - 9, Rs1: VRFWords - 17},
			{Op: OpVbcast, Rd: VRFWords - 3, Rs1: 20},
			{Op: OpVadd, Rd: 100, Rs1: VRFWords - 9, Rs2: VRFWords - 3},
			{Op: OpVst, Rd: 100, Rs1: 10, Rs2: 12, Imm: ElemF32},
			// A negative store slot wraps like every other register
			// window (the engine used to slice the file with it).
			{Op: OpVst, Rd: -7, Rs1: 10, Rs2: 12, Imm: ElemF32},
			{Op: OpRet},
		}, nil)
	}
	seed := func(m *Machine) {
		for i := int64(0); i < 32; i++ {
			putF32(m.mem, 4096+4*i, float32(i)+1)
		}
	}
	diffRun(t, mk, seed, 1)
}

// parallelCyclicProg writes i into slot i of a 256-element array,
// iterations cyclically distributed over the processors, then each
// processor prints its pid once.
func parallelCyclicProg() *Program {
	instrs := []Instr{
		{Op: OpLdi, Rd: 20, Imm: 4096}, // fmt "%d\n" placed by seed
		{Op: OpParBegin},
		{Op: OpPid, Rd: 10},
		{Op: OpNproc, Rd: 11},
		{Op: OpMov, Rd: 12, Rs1: 10},
		// L: if i >= 256 goto E
		{Op: OpLdi, Rd: 13, Imm: 256},
		{Op: OpCmpGe, Rd: 14, Rs1: 12, Rs2: 13},
		{Op: OpBnez, Rs1: 14, Sym: "E"},
		{Op: OpMuli, Rd: 15, Rs1: 12, Imm: 4},
		{Op: OpAddi, Rd: 15, Rs1: 15, Imm: 8192},
		{Op: OpSt4, Rs1: 15, Rs2: 12},
		{Op: OpAdd, Rd: 12, Rs1: 12, Rs2: 11},
		{Op: OpJmp, Sym: "L"},
		// E: printf("%d\n", pid)
		{Op: OpArg, Rs1: 20},
		{Op: OpArg, Rs1: 10},
		{Op: OpCall, Sym: "printf"},
		{Op: OpParEnd},
		{Op: OpRet},
	}
	return mkProg(instrs, map[string]int{"L": 5, "E": 13})
}

func seedPidFmt(m *Machine) {
	copy(m.mem[4096:], "%d\n\x00")
}

// TestEngineDifferentialParallel checks the goroutine-backed regions
// against the serialized reference at every processor count: identical
// cycles (max-delta + fork overhead join), identical pooled
// instruction/flop counts, identical memory, and identical output — the
// per-pid printf lines must appear in pid order.
func TestEngineDifferentialParallel(t *testing.T) {
	// Both region execution strategies must match the reference: the
	// goroutine fan-out and the single-core serialized fallback.
	for _, mode := range []struct {
		name        string
		parallelism int
	}{{"goroutines", MaxProcessors}, {"serialized", 1}} {
		t.Run(mode.name, func(t *testing.T) {
			old := engineHostParallelism
			engineHostParallelism = mode.parallelism
			t.Cleanup(func() { engineHostParallelism = old })
			for procs := 1; procs <= MaxProcessors; procs++ {
				res := diffRun(t, parallelCyclicProg, seedPidFmt, procs)
				var want strings.Builder
				for pid := 0; pid < procs; pid++ {
					fmt.Fprintf(&want, "%d\n", pid)
				}
				if res.Output != want.String() {
					t.Errorf("procs=%d output %q, want %q", procs, res.Output, want.String())
				}
			}
		})
	}
}

// TestEngineDeterminism runs the 4-processor parallel workload many
// times and requires every Result to be identical: goroutine scheduling
// must not leak into simulated time or output.
func TestEngineDeterminism(t *testing.T) {
	forceGoroutineRegions(t)
	var first Result
	for i := 0; i < 10; i++ {
		m := NewMachine(parallelCyclicProg(), 4)
		seedPidFmt(m)
		res, err := m.Run("main")
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res
		} else if res != first {
			t.Fatalf("run %d: %+v != first %+v", i, res, first)
		}
	}
}

// TestEngineConcurrentSimulations runs many independent simulations of
// one shared Program (sharing its decode cache), each with parallel
// regions fanning out goroutines, under the race detector.
func TestEngineConcurrentSimulations(t *testing.T) {
	forceGoroutineRegions(t)
	prog := parallelCyclicProg()
	var wg sync.WaitGroup
	errs := make([]error, 16)
	results := make([]Result, 16)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := NewMachine(prog, 1+i%MaxProcessors)
			seedPidFmt(m)
			results[i], errs[i] = m.Run("main")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("sim %d: %v", i, err)
		}
		if i >= MaxProcessors {
			if results[i] != results[i-MaxProcessors] {
				t.Errorf("sim %d result differs from sim %d at same processor count", i, i-MaxProcessors)
			}
		}
	}
}

// TestScalarFault checks the descriptive fault for out-of-range scalar
// accesses on both engines.
func TestScalarFault(t *testing.T) {
	mk := func() *Program {
		return mkProg([]Instr{
			{Op: OpLdi, Rd: 10, Imm: -4},
			{Op: OpLd4, Rd: 11, Rs1: 10},
			{Op: OpRet},
		}, nil)
	}
	for _, run := range []struct {
		name string
		do   func(*Machine) (Result, error)
	}{
		{"engine", func(m *Machine) (Result, error) { return m.Run("main") }},
		{"reference", func(m *Machine) (Result, error) { return m.RunReference("main") }},
	} {
		_, err := run.do(NewMachine(mk(), 1))
		var f *Fault
		if !errors.As(err, &f) {
			t.Fatalf("%s: got %v, want *Fault", run.name, err)
		}
		if f.Addr != -4 || f.Size != 4 || f.Kind != "load" || f.Func != "main" || f.PC != 1 {
			t.Errorf("%s: fault %+v", run.name, f)
		}
		if want := "titan: fault at addr=-4 (load, size 4) in main+1"; err.Error() != want {
			t.Errorf("%s: message %q, want %q", run.name, err, want)
		}
	}
}

// TestStridedVectorFault checks that a strided vector store running off
// the end of memory faults with the failing element's address on both
// engines, identically.
func TestStridedVectorFault(t *testing.T) {
	mk := func() *Program {
		return mkProg([]Instr{
			{Op: OpLdi, Rd: 9, Imm: 32},
			{Op: OpVsetl, Rs1: 9},
			{Op: OpLdi, Rd: 10, Imm: 1<<20 - 64}, // near the top of memory
			{Op: OpLdi, Rd: 12, Imm: 16},
			{Op: OpVst, Rd: 0, Rs1: 10, Rs2: 12, Imm: ElemF32},
			{Op: OpRet},
		}, nil)
	}
	_, errF := NewMachine(mk(), 1).Run("main")
	_, errR := NewMachine(mk(), 1).RunReference("main")
	var f *Fault
	if !errors.As(errF, &f) {
		t.Fatalf("engine: got %v, want *Fault", errF)
	}
	if f.Kind != "vector store" || f.Func != "main" || f.PC != 4 {
		t.Errorf("fault %+v", f)
	}
	// First failing element: base + k*stride with base+4 > len.
	if wantAddr := int64(1<<20 - 64 + 4*16); f.Addr != wantAddr {
		t.Errorf("fault addr %d, want %d", f.Addr, wantAddr)
	}
	if errR == nil || errF.Error() != errR.Error() {
		t.Errorf("engine fault %q != reference fault %q", errF, errR)
	}
}

// TestCstringFault checks that printf with a bad format pointer faults
// instead of silently printing nothing, attributed to the call site.
func TestCstringFault(t *testing.T) {
	mk := func() *Program {
		return mkProg([]Instr{
			{Op: OpLdi, Rd: 10, Imm: -1},
			{Op: OpArg, Rs1: 10},
			{Op: OpCall, Sym: "printf"},
			{Op: OpRet},
		}, nil)
	}
	_, errF := NewMachine(mk(), 1).Run("main")
	_, errR := NewMachine(mk(), 1).RunReference("main")
	var f *Fault
	if !errors.As(errF, &f) {
		t.Fatalf("engine: got %v, want *Fault", errF)
	}
	if f.Kind != "cstring" || f.Addr != -1 || f.Func != "main" || f.PC != 2 {
		t.Errorf("fault %+v", f)
	}
	if errR == nil || errF.Error() != errR.Error() {
		t.Errorf("engine fault %q != reference fault %q", errF, errR)
	}
}

// TestEngineUnknownLabelLazy mirrors the reference: an unknown branch
// label is a runtime error only when the branch is taken, so dead code
// with a bad label never fires.
func TestEngineUnknownLabelLazy(t *testing.T) {
	dead := mkProg([]Instr{
		{Op: OpLdi, Rd: 10, Imm: 1},
		{Op: OpBeqz, Rs1: 10, Sym: "nowhere"}, // never taken
		{Op: OpLdi, Rd: RegRetInt, Imm: 7},
		{Op: OpRet},
	}, nil)
	res, err := NewMachine(dead, 1).Run("main")
	if err != nil || res.ExitCode != 7 {
		t.Fatalf("dead bad label: res %+v err %v", res, err)
	}
	taken := mkProg([]Instr{
		{Op: OpJmp, Sym: "nowhere"},
		{Op: OpRet},
	}, nil)
	if _, err := NewMachine(taken, 1).Run("main"); err == nil || !strings.Contains(err.Error(), `unknown label "nowhere"`) {
		t.Fatalf("taken bad label: err %v", err)
	}
}

// TestEngineParallelRegionAllocs guards the vecReady-map removal: a
// region fork is a struct copy plus one slab per join, not a per-slot
// map clone. The bound is loose but would catch a reintroduced
// per-element or per-slot allocation.
func TestEngineParallelRegionAllocs(t *testing.T) {
	forceGoroutineRegions(t)
	prog := parallelCyclicProg()
	m := NewMachine(prog, 1) // warm the decode cache
	seedPidFmt(m)
	if _, err := m.Run("main"); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		m := NewMachine(prog, 4)
		seedPidFmt(m)
		if _, err := m.Run("main"); err != nil {
			t.Fatal(err)
		}
	})
	// NewMachine's slab + the region's subs/outs/errs slices + printf
	// formatting; the old map-based scoreboard cost thousands.
	if allocs > 200 {
		t.Errorf("parallel run allocates %v objects", allocs)
	}
}

// binaryPutF64 stores a float64 little-endian (test helper).
func binaryPutF64(mem []byte, addr int64, v float64) {
	bits := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		mem[addr+int64(i)] = byte(bits >> (8 * i))
	}
}
