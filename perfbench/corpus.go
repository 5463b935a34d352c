package main

// The seeded corpus of C translation units that compile-corpus compiles
// and titand-mix serves, with a Go evaluator that computes every
// procedure's expected result without the compiler.
//
// Exactness is what makes one expected value correct for every
// configuration: all data and every intermediate value are integers of
// magnitude at most valueLimit (reductions: at most sumLimit), so they are
// exact in float32 memory and in the Titan's float64 registers alike, and
// no association, register promotion or vector partial sum can change a
// result. The generator evaluates each loop as it draws it and replaces a
// loop that would leave those bounds with a bounded reset loop.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

const (
	valueLimit = 1 << 20
	sumLimit   = 1 << 22

	// mRows is the row count of the 2-D array the nest shape writes; its
	// column count is n/mRows, so every unit's n is a multiple of it.
	mRows = 8
	// nArrays one-dimensional arrays per unit: g0..g3 plain globals, r.v
	// and r.w inside a struct, q[].x and q[].y fields of a struct array.
	// The first nContiguous can be passed as pointers.
	nArrays     = 8
	nPlain      = 4
	nContiguous = 6
)

// unit is one generated translation unit: every entry is a procedure
// taking no arguments that returns its own checksum.
type unit struct {
	Name    string
	Src     string
	Entries []entry
}

type entry struct {
	Name string
	Want int64
}

// ref renders array a's element idx as a C lvalue.
func ref(a int, idx string) string {
	switch {
	case a < nPlain:
		return fmt.Sprintf("g%d[%s]", a, idx)
	case a == 4:
		return "r.v[" + idx + "]"
	case a == 5:
		return "r.w[" + idx + "]"
	case a == 6:
		return "q[" + idx + "].x"
	default:
		return "q[" + idx + "].y"
	}
}

// base renders a contiguous array as a pointer argument; the q[] fields
// are strided and never passed.
func base(a int) string {
	switch a {
	case 4:
		return "r.v"
	case 5:
		return "r.w"
	}
	return fmt.Sprintf("g%d", a)
}

// state is the evaluator's memory: the unit's arrays, the 2-D array m
// (row-major), and the float accumulator s with the running sum of the
// magnitudes it added (every partial sum is bounded by it).
type state struct {
	n    int
	arr  [nArrays][]float64
	m    []float64
	s    float64
	sAbs float64
}

func newState(n int) *state {
	st := &state{n: n, m: make([]float64, n)}
	for a := range st.arr {
		st.arr[a] = make([]float64, n)
	}
	return st
}

func (st *state) clone() *state {
	c := *st
	for a := range c.arr {
		c.arr[a] = append([]float64(nil), st.arr[a]...)
	}
	c.m = append([]float64(nil), st.m...)
	return &c
}

func (st *state) bounded() bool {
	for _, xs := range append(st.arr[:], st.m) {
		for _, v := range xs {
			if math.Abs(v) > valueLimit {
				return false
			}
		}
	}
	return st.sAbs <= sumLimit
}

// initVal is the C expression (i * mul + add) % 17 - 8 with C's
// truncating remainder; i, mul and add are non-negative.
func initVal(i, mul, add int) float64 { return float64((i*mul+add)%17 - 8) }

// shape is one loop of a generated procedure: its C text and its effect
// on the evaluator's memory.
type shape interface {
	c(n int) string
	eval(st *state)
}

// vecLoop: X[i] = T1 op Z[i+oz] * k, T1 being X[i] or Y[i+oy]; with rev
// the Z subscript runs backwards (n-1-i). Vectorizable and parallel.
type vecLoop struct {
	x, y, z int
	selfX   bool
	oy, oz  int
	rev     bool
	minus   bool
	k       int
	lo, hi  int
}

func scaled(e string, k int) string {
	if k == 1 {
		return e
	}
	return fmt.Sprintf("%s * %d.0f", e, k)
}

func offset(o int) string {
	switch {
	case o > 0:
		return fmt.Sprintf("i + %d", o)
	case o < 0:
		return fmt.Sprintf("i - %d", -o)
	}
	return "i"
}

func (l *vecLoop) c(n int) string {
	t1 := ref(l.y, offset(l.oy))
	if l.selfX {
		t1 = ref(l.x, "i")
	}
	zi := offset(l.oz)
	if l.rev {
		zi = fmt.Sprintf("%d - i", n-1)
	}
	op := "+"
	if l.minus {
		op = "-"
	}
	return fmt.Sprintf("\tfor (i = %d; i < %d; i++)\n\t\t%s = %s %s %s;\n",
		l.lo, l.hi, ref(l.x, "i"), t1, op, scaled(ref(l.z, zi), l.k))
}

func (l *vecLoop) eval(st *state) {
	x, y, z := st.arr[l.x], st.arr[l.y], st.arr[l.z]
	for i := l.lo; i < l.hi; i++ {
		t1 := y[i+l.oy]
		if l.selfX {
			t1 = x[i]
		}
		zi := i + l.oz
		if l.rev {
			zi = st.n - 1 - i
		}
		t2 := z[zi] * float64(l.k)
		if l.minus {
			x[i] = t1 - t2
		} else {
			x[i] = t1 + t2
		}
	}
}

// guardLoop: if (Y[i] cmp t) X[i] = Z[i] + k  (or X[i] = X[i] + Z[i] when
// accum). If-converted and vectorized under a mask.
type guardLoop struct {
	x, y, z int
	cmp     string
	t, k    int
	accum   bool
}

func (l *guardLoop) c(n int) string {
	rhs := fmt.Sprintf("%s + %d.0f", ref(l.z, "i"), l.k)
	if l.accum {
		rhs = ref(l.x, "i") + " + " + ref(l.z, "i")
	}
	return fmt.Sprintf("\tfor (i = 0; i < %d; i++)\n\t\tif (%s %s %d.0f)\n\t\t\t%s = %s;\n",
		n, ref(l.y, "i"), l.cmp, l.t, ref(l.x, "i"), rhs)
}

func (l *guardLoop) eval(st *state) {
	x, y, z := st.arr[l.x], st.arr[l.y], st.arr[l.z]
	t := float64(l.t)
	for i := 0; i < st.n; i++ {
		var take bool
		switch l.cmp {
		case ">":
			take = y[i] > t
		case "<":
			take = y[i] < t
		case ">=":
			take = y[i] >= t
		default: // "!="
			take = y[i] != t
		}
		if !take {
			continue
		}
		if l.accum {
			x[i] += z[i]
		} else {
			x[i] = z[i] + float64(l.k)
		}
	}
}

// carriedLoop: X[i] = Y[i] (+ Z[i]) - X[i - d], a flow dependence carried
// at constant distance d (the DOACROSS shape).
type carriedLoop struct {
	x, y, z int
	withZ   bool
	d       int
}

func (l *carriedLoop) c(n int) string {
	rhs := ref(l.y, "i")
	if l.withZ {
		rhs += " + " + ref(l.z, "i")
	}
	return fmt.Sprintf("\tfor (i = %d; i < %d; i++)\n\t\t%s = %s - %s;\n",
		l.d, n, ref(l.x, "i"), rhs, ref(l.x, offset(-l.d)))
}

func (l *carriedLoop) eval(st *state) {
	x, y, z := st.arr[l.x], st.arr[l.y], st.arr[l.z]
	for i := l.d; i < st.n; i++ {
		v := y[i]
		if l.withZ {
			v += z[i]
		}
		x[i] = v - x[i-l.d]
	}
}

// whileLoop: a counted while loop (§5.2 converts it to a DO loop).
type whileLoop struct {
	x, y, z int
	minus   bool
}

func (l *whileLoop) c(n int) string {
	op := "+"
	if l.minus {
		op = "-"
	}
	return fmt.Sprintf("\tk = %d;\n\twhile (k) {\n\t\t%s = %s %s %s;\n\t\tk--;\n\t}\n",
		n, ref(l.x, "k - 1"), ref(l.y, "k - 1"), op, ref(l.z, "k - 1"))
}

func (l *whileLoop) eval(st *state) {
	x, y, z := st.arr[l.x], st.arr[l.y], st.arr[l.z]
	for k := st.n; k > 0; k-- {
		if l.minus {
			x[k-1] = y[k-1] - z[k-1]
		} else {
			x[k-1] = y[k-1] + z[k-1]
		}
	}
}

// reduceLoop: s = s + X[i] * k, a float sum reduction.
type reduceLoop struct {
	x, k int
}

func (l *reduceLoop) c(n int) string {
	return fmt.Sprintf("\tfor (i = 0; i < %d; i++)\n\t\ts = s + %s;\n", n, scaled(ref(l.x, "i"), l.k))
}

func (l *reduceLoop) eval(st *state) {
	for _, v := range st.arr[l.x] {
		t := v * float64(l.k)
		st.s += t
		st.sAbs += math.Abs(t)
	}
}

// callLoop calls helper h<id>(x, y, n), whose loop x[i] = x[i] + y[i] * k
// §7 inlines at the call site.
type callLoop struct {
	id, x, y, k int
}

func (l *callLoop) helper() string {
	return fmt.Sprintf("void h%d(float *x, float *y, int n)\n{\n\tint i;\n\tfor (i = 0; i < n; i++)\n\t\tx[i] = x[i] + %s;\n}\n\n",
		l.id, scaled("y[i]", l.k))
}

func (l *callLoop) c(n int) string {
	return fmt.Sprintf("\th%d(%s, %s, %d);\n", l.id, base(l.x), base(l.y), n)
}

func (l *callLoop) eval(st *state) {
	x, y := st.arr[l.x], st.arr[l.y]
	for i := range x {
		x[i] += y[i] * float64(l.k)
	}
}

// fcallLoop: X[i] = f<id>(Y[i]) + Z[i] with f<id>(v) = v * k + add, a call
// in a loop body that blocks vectorization until it is inlined.
type fcallLoop struct {
	id, x, y, z, k, add int
}

func (l *fcallLoop) helper() string {
	return fmt.Sprintf("float f%d(float v)\n{\n\treturn %s + %d.0f;\n}\n\n", l.id, scaled("v", l.k), l.add)
}

func (l *fcallLoop) c(n int) string {
	return fmt.Sprintf("\tfor (i = 0; i < %d; i++)\n\t\t%s = f%d(%s) + %s;\n",
		n, ref(l.x, "i"), l.id, ref(l.y, "i"), ref(l.z, "i"))
}

func (l *fcallLoop) eval(st *state) {
	x, y, z := st.arr[l.x], st.arr[l.y], st.arr[l.z]
	for i := range x {
		x[i] = y[i]*float64(l.k) + float64(l.add) + z[i]
	}
}

// nestLoop: m[i][j] = X[i*cols + j] * k + Y[j], a 2-level independent nest.
type nestLoop struct {
	x, y, k int
}

func (l *nestLoop) c(n int) string {
	cols := n / mRows
	return fmt.Sprintf("\tfor (i = 0; i < %d; i++)\n\t\tfor (j = 0; j < %d; j++)\n\t\t\tm[i][j] = %s + %s;\n",
		mRows, cols, scaled(ref(l.x, fmt.Sprintf("i * %d + j", cols)), l.k), ref(l.y, "j"))
}

func (l *nestLoop) eval(st *state) {
	cols := st.n / mRows
	x, y := st.arr[l.x], st.arr[l.y]
	for i := 0; i < mRows; i++ {
		for j := 0; j < cols; j++ {
			st.m[i*cols+j] = x[i*cols+j]*float64(l.k) + y[j]
		}
	}
}

// resetLoop: X[i] = (i * mul + add) % 17 - 8. It replaces a drawn loop
// that would leave the exactness bounds.
type resetLoop struct {
	x, mul, add int
}

func (l *resetLoop) c(n int) string {
	return fmt.Sprintf("\tfor (i = 0; i < %d; i++)\n\t\t%s = (i * %d + %d) %% 17 - 8;\n", n, ref(l.x, "i"), l.mul, l.add)
}

func (l *resetLoop) eval(st *state) {
	for i := range st.arr[l.x] {
		st.arr[l.x][i] = initVal(i, l.mul, l.add)
	}
}

// shapeKinds is one deck of loop kinds; the generator deals procedures'
// loops from shuffled copies, so every corpus holds them in these
// proportions whatever the seed. The proportions here and in unitProcs
// are assumptions (README.md gives the reasons).
var shapeKinds = []string{"vec", "vec", "vec", "guard", "guard", "carried", "carried", "while", "reduce", "call", "fcall", "nest"}

// unitProcs is the deck of procedure counts per unit and unitSizes the
// deck of array sizes; each corpus also holds one unit of bigProcs
// procedures, the large synthetic size.
var unitProcs = []int{1, 1, 1, 1, 2, 2, 2, 3, 4, 6, 8, 12}

const bigProcs = 24

var unitSizes = []int{64, 96, 128, 192, 256}

type generator struct {
	rng   *rand.Rand
	kinds []string
	loops []int
}

func newGenerator(seed int64) *generator {
	return &generator{rng: rand.New(rand.NewSource(seed))}
}

func (g *generator) nextKind() string {
	if len(g.kinds) == 0 {
		g.kinds = append([]string(nil), shapeKinds...)
		g.rng.Shuffle(len(g.kinds), func(i, j int) { g.kinds[i], g.kinds[j] = g.kinds[j], g.kinds[i] })
	}
	k := g.kinds[0]
	g.kinds = g.kinds[1:]
	return k
}

// nextLoops deals a procedure's loop count, 1 to 3, from a shuffled
// deck.
func (g *generator) nextLoops() int {
	if len(g.loops) == 0 {
		g.loops = g.rng.Perm(3)
	}
	l := g.loops[0] + 1
	g.loops = g.loops[1:]
	return l
}

// corpus generates units whose (procedure count, array size) pairs cycle
// through both decks, in seeded order, plus one bigProcs unit when big
// is set: every corpus of a given size has the same make-up.
func (g *generator) corpus(prefix string, units int, big bool) []unit {
	type size struct{ procs, n int }
	sizes := make([]size, units)
	for i := range sizes {
		sizes[i] = size{unitProcs[i%len(unitProcs)], unitSizes[i/len(unitProcs)%len(unitSizes)]}
	}
	if big && units > 0 {
		sizes[0].procs = bigProcs
	}
	g.rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	out := make([]unit, units)
	for i, sz := range sizes {
		out[i] = g.unit(fmt.Sprintf("%s%03d", prefix, i), sz.procs, sz.n)
	}
	return out
}

// unitBuilder accumulates one unit's helpers, procedures and expected
// results.
type unitBuilder struct {
	n       int
	helpers strings.Builder
	procs   strings.Builder
	entries []entry
	nHelper int
}

// unit generates a translation unit of procs procedures over arrays of
// n elements (a multiple of mRows).
func (g *generator) unit(name string, procs, n int) unit {
	b := &unitBuilder{n: n}
	for p := 0; p < procs; p++ {
		arrs := g.rng.Perm(nArrays)[:3]
		loops := g.nextLoops()
		var body []shape
		for l := 0; l < loops; l++ {
			body = append(body, g.draw(b, arrs))
		}
		b.proc(fmt.Sprintf("e%d", p), arrs, g.initMuls(), body)
	}
	return b.finish(name)
}

// initMuls draws the (mul, add) pairs of a procedure's three init
// formulas.
func (g *generator) initMuls() [3][2]int {
	var m [3][2]int
	for i := range m {
		m[i] = [2]int{1 + g.rng.Intn(16), g.rng.Intn(17)}
	}
	return m
}

// draw picks the next kind from the deck and its parameters over the
// procedure's arrays (roles permuted per loop).
func (g *generator) draw(b *unitBuilder, arrs []int) shape {
	perm := g.rng.Perm(3)
	x, y, z := arrs[perm[0]], arrs[perm[1]], arrs[perm[2]]
	n := b.n
	switch g.nextKind() {
	case "vec":
		l := &vecLoop{x: x, y: y, z: z, selfX: g.rng.Intn(3) == 0, oy: g.rng.Intn(5) - 2, oz: g.rng.Intn(5) - 2,
			rev: g.rng.Intn(4) == 0, minus: g.rng.Intn(2) == 0, k: 1 + g.rng.Intn(3)}
		if l.selfX {
			l.oy = 0
		}
		if l.rev {
			l.oz = 0
		}
		l.lo = max(0, -l.oy, -l.oz)
		l.hi = n - max(0, l.oy, l.oz)
		return l
	case "guard":
		return &guardLoop{x: x, y: y, z: z, cmp: []string{">", "<", ">=", "!="}[g.rng.Intn(4)],
			t: g.rng.Intn(9) - 4, k: 1 + g.rng.Intn(5), accum: g.rng.Intn(2) == 0}
	case "carried":
		ds := []int{1, 2, 3, 4, 8}
		if n >= 128 {
			ds = append(ds, 32)
		}
		return &carriedLoop{x: x, y: y, z: z, withZ: g.rng.Intn(2) == 0, d: ds[g.rng.Intn(len(ds))]}
	case "while":
		return &whileLoop{x: x, y: y, z: z, minus: g.rng.Intn(2) == 0}
	case "reduce":
		return &reduceLoop{x: x, k: 1 + g.rng.Intn(3)}
	case "call":
		var flat []int
		for _, a := range arrs {
			if a < nContiguous {
				flat = append(flat, a)
			}
		}
		if len(flat) < 2 {
			return &vecLoop{x: x, y: y, z: z, k: 1, hi: n}
		}
		b.nHelper++
		return &callLoop{id: b.nHelper, x: flat[0], y: flat[1], k: 1 + g.rng.Intn(3)}
	case "fcall":
		b.nHelper++
		return &fcallLoop{id: b.nHelper, x: x, y: y, z: z, k: 1 + g.rng.Intn(2), add: g.rng.Intn(7) - 3}
	default: // "nest"
		return &nestLoop{x: x, y: y, k: 1 + g.rng.Intn(3)}
	}
}

// proc emits one entry procedure: init the three arrays, run the body
// loops (each evaluated; one that breaks the bounds becomes a reset),
// and fold s, the three arrays and m (if written) into the checksum.
func (b *unitBuilder) proc(name string, arrs []int, init [3][2]int, body []shape) {
	n := b.n
	st := newState(n)
	var sb strings.Builder
	fmt.Fprintf(&sb, "int %s(void)\n{\n\tint i, j, k, chk;\n\tfloat s;\n\tfor (i = 0; i < %d; i++) {\n", name, n)
	for r, a := range arrs {
		fmt.Fprintf(&sb, "\t\t%s = (i * %d + %d) %% 17 - 8;\n", ref(a, "i"), init[r][0], init[r][1])
		(&resetLoop{x: a, mul: init[r][0], add: init[r][1]}).eval(st)
	}
	sb.WriteString("\t}\n\ts = 0;\n")
	usesM := false
	for _, l := range body {
		trial := st.clone()
		l.eval(trial)
		if !trial.bounded() {
			w := writtenArray(l, arrs[0])
			l = &resetLoop{x: w, mul: 5, add: 3}
			trial = st.clone()
			l.eval(trial)
		}
		st = trial
		switch h := l.(type) {
		case *callLoop:
			b.helpers.WriteString(h.helper())
		case *fcallLoop:
			b.helpers.WriteString(h.helper())
		case *nestLoop:
			usesM = true
		}
		sb.WriteString(l.c(n))
	}
	terms := fmt.Sprintf("(int)%s + 5 * (int)%s + 7 * (int)%s", ref(arrs[0], "i"), ref(arrs[1], "i"), ref(arrs[2], "i"))
	if usesM {
		terms += fmt.Sprintf(" + 11 * (int)m[i %% %d][i / %d]", mRows, mRows)
	}
	fmt.Fprintf(&sb, "\tchk = (int)s;\n\tfor (i = 0; i < %d; i++)\n\t\tchk = (chk * 3 + %s) %% 10007;\n\treturn chk;\n}\n\n", n, terms)
	b.procs.WriteString(sb.String())
	b.entries = append(b.entries, entry{Name: name, Want: checksum(st, arrs, usesM)})
}

// writtenArray is the array a loop stores to (m-writing nests and
// reductions fall back to def).
func writtenArray(l shape, def int) int {
	switch l := l.(type) {
	case *vecLoop:
		return l.x
	case *guardLoop:
		return l.x
	case *carriedLoop:
		return l.x
	case *whileLoop:
		return l.x
	case *callLoop:
		return l.x
	case *fcallLoop:
		return l.x
	}
	return def
}

// checksum mirrors the generated checksum loop with C int semantics
// (Go's % truncates like C's).
func checksum(st *state, arrs []int, usesM bool) int64 {
	chk := int64(st.s)
	cols := st.n / mRows
	for i := 0; i < st.n; i++ {
		t := int64(st.arr[arrs[0]][i]) + 5*int64(st.arr[arrs[1]][i]) + 7*int64(st.arr[arrs[2]][i])
		if usesM {
			t += 11 * int64(st.m[(i%mRows)*cols+i/mRows])
		}
		chk = (chk*3 + t) % 10007
	}
	return chk
}

func (b *unitBuilder) finish(name string) unit {
	n := b.n
	var sb strings.Builder
	fmt.Fprintf(&sb, "/* %s: generated */\nfloat g0[%d], g1[%d], g2[%d], g3[%d];\n", name, n, n, n, n)
	fmt.Fprintf(&sb, "struct rec { float v[%d]; float w[%d]; } r;\nstruct pt { float x; float y; } q[%d];\nfloat m[%d][%d];\n\n",
		n, n, n, mRows, n/mRows)
	sb.WriteString(b.helpers.String())
	sb.WriteString(b.procs.String())
	return unit{Name: name, Src: sb.String(), Entries: b.entries}
}
