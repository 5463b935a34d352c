package main

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/driver"
)

// TestCorpusCompilesAndMatches compiles generated corpora under both
// configurations and checks every entry at p=1, 2 and 4 against the
// evaluator: a generated unit must never fail, or failures would depend
// on the seed.
func TestCorpusCompilesAndMatches(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		units := newGenerator(seed).corpus(fmt.Sprintf("s%d-", seed), 24, seed == 1)
		units = append(units, newGenerator(seed).corpus("m", 12, false)...)
		for _, u := range units {
			for _, c := range compileConfigs {
				res, err := driver.CompileWith(u.Src, c.opts, singleThread())
				if err != nil {
					t.Errorf("%s/%s: %v\n%s", u.Name, c.name, err, u.Src)
					continue
				}
				for _, p := range []int{1, 2, 4, 4} {
					if reason := checkEntries(res.Machine, u, p, nil, nil); reason != "" {
						t.Errorf("%s/%s p=%d: %s\n%s", u.Name, c.name, p, reason, u.Src)
						break
					}
				}
			}
		}
	}
}

func TestCorpusSameSeedSameBytes(t *testing.T) {
	a := newGenerator(7).corpus("u", 30, true)
	b := newGenerator(7).corpus("u", 30, true)
	c := newGenerator(8).corpus("u", 30, true)
	same := true
	for i := range a {
		if a[i].Src != b[i].Src || fmt.Sprint(a[i].Entries) != fmt.Sprint(b[i].Entries) {
			t.Fatalf("seed 7 unit %d differs between two generations", i)
		}
		same = same && a[i].Src == c[i].Src
	}
	if same {
		t.Fatal("seeds 7 and 8 gave the same corpus")
	}
	k1, k2 := buildKernels(7), buildKernels(7)
	for i := range k1 {
		if k1[i] != k2[i] {
			t.Fatalf("kernel %s differs between two generations", k1[i].name)
		}
	}
}

// ramp is an n-element state with g1 = 1..n and g2 all ones.
func ramp(n int) *state {
	st := newState(n)
	for i := 0; i < n; i++ {
		st.arr[1][i] = float64(i + 1)
		st.arr[2][i] = 1
	}
	return st
}

func TestEvaluatorHandWorked(t *testing.T) {
	cases := []struct {
		name string
		l    shape
		init func(*state)
		src  string
		want []float64 // the written array afterwards
	}{
		{"vec", &vecLoop{x: 0, y: 1, z: 2, oy: 1, minus: true, k: 2, hi: 7}, nil,
			"\tfor (i = 0; i < 7; i++)\n\t\tg0[i] = g1[i + 1] - g2[i] * 2.0f;\n",
			[]float64{0, 1, 2, 3, 4, 5, 6, 0}},
		{"carried", &carriedLoop{x: 0, y: 1, d: 2}, func(st *state) { st.arr[0][0], st.arr[0][1] = 10, 20 },
			"\tfor (i = 2; i < 8; i++)\n\t\tg0[i] = g1[i] - g0[i - 2];\n",
			[]float64{10, 20, -7, -16, 12, 22, -5, -14}},
		{"guard", &guardLoop{x: 0, y: 1, z: 2, cmp: ">", t: 4, k: 3}, nil,
			"\tfor (i = 0; i < 8; i++)\n\t\tif (g1[i] > 4.0f)\n\t\t\tg0[i] = g2[i] + 3.0f;\n",
			[]float64{0, 0, 0, 0, 4, 4, 4, 4}},
		{"while", &whileLoop{x: 0, y: 1, z: 2, minus: true}, nil,
			"\tk = 8;\n\twhile (k) {\n\t\tg0[k - 1] = g1[k - 1] - g2[k - 1];\n\t\tk--;\n\t}\n",
			[]float64{0, 1, 2, 3, 4, 5, 6, 7}},
		{"struct", &vecLoop{x: 6, y: 4, z: 5, rev: true, k: 1, hi: 8}, func(st *state) {
			for i := 0; i < 8; i++ {
				st.arr[4][i], st.arr[5][i] = float64(i), float64(10*i)
			}
		}, "\tfor (i = 0; i < 8; i++)\n\t\tq[i].x = r.v[i] + r.w[7 - i];\n",
			[]float64{70, 61, 52, 43, 34, 25, 16, 7}},
	}
	for _, c := range cases {
		st := ramp(8)
		if c.init != nil {
			c.init(st)
		}
		c.l.eval(st)
		if got := c.l.c(8); got != c.src {
			t.Errorf("%s: C text %q, want %q", c.name, got, c.src)
		}
		if got := st.arr[writtenArray(c.l, -1)]; fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: written array = %v, want %v", c.name, got, c.want)
		}
	}

	st := ramp(8)
	(&reduceLoop{x: 1, k: 2}).eval(st)
	if st.s != 72 || st.sAbs != 72 {
		t.Errorf("reduce: s = %v (|s| bound %v), want 2*(1+...+8) = 72", st.s, st.sAbs)
	}

	// Checksum with g0 = 0, g1 = 1, g2 = 0: t = 5 per element, so chk
	// runs 5, 20, 65, 200, 605, 1820, 5465, 16400 % 10007 = 6393.
	st = newState(8)
	for i := range st.arr[1] {
		st.arr[1][i] = 1
	}
	if got := checksum(st, []int{0, 1, 2}, false); got != 6393 {
		t.Errorf("checksum = %d, want 6393", got)
	}
	// All -1 in g0: C's remainder keeps the sign, chk = -3280.
	st = newState(8)
	for i := range st.arr[0] {
		st.arr[0][i] = -1
	}
	if got := checksum(st, []int{0, 1, 2}, false); got != -3280 {
		t.Errorf("checksum = %d, want -3280", got)
	}
	if got := promoWant(); got != 58 {
		t.Errorf("promo unit: want %d, hand-worked 4 + 54 = 58", got)
	}
}

// TestKnownFaultsMatchOnlyTheirFailure checks that a fault unit's failure
// counts as known only when it fails in the named way.
func TestKnownFaultsMatchOnlyTheirFailure(t *testing.T) {
	cases := []struct {
		unit, cfg, reason string
		known             bool
	}{
		{"fault-promo", "scalar", `entry promo: exit 55 output "", want exit 58`, true},
		{"fault-promo", "scalar", `entry promo: exit 57 output "", want exit 58`, false},
		{"fault-promo", "scalar", "entry promo: run: memory fault", false},
		{"fault-promo", "full", `entry promo: exit 55 output "", want exit 58`, false},
		{"fault-regs", "full", "compile: codegen: loop variable not in a register", true},
		{"fault-regs", "full", "compile: codegen: out of registers", false},
		{"fault-regs", "full", `entry regs: exit 1 output "", want exit 2`, false},
		{"fault-regs", "scalar", "compile: codegen: loop variable not in a register", false},
		{"u000", "full", "compile: codegen: loop variable not in a register", false},
	}
	for _, c := range cases {
		if got := knownFault(c.unit, c.cfg, c.reason); got != c.known {
			t.Errorf("knownFault(%s, %s, %q) = %v, want %v", c.unit, c.cfg, c.reason, got, c.known)
		}
	}
}

// TestMetricNamesMatchManifest keeps the metrics the command reports and
// those BENCHMARK.json names the same.
func TestMetricNamesMatchManifest(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &manifest); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		got  []string
		ms   []struct{ Name string }
	}{{"end_to_end", endToEndNames, manifest.EndToEnd}, {"per_layer", perLayerNames, manifest.PerLayer}} {
		var names []string
		for _, m := range c.ms {
			names = append(names, m.Name)
		}
		if fmt.Sprint(names) != fmt.Sprint(c.got) {
			t.Errorf("%s: BENCHMARK.json has %v, the command reports %v", c.what, names, c.got)
		}
	}
}
