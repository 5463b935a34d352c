package main

// The simulate-kernels programs: the paper's E-series shapes (E1–E4, E7,
// E10), the DOACROSS recurrences, the masked kernels and a synthetic
// DOALL kernel, each rewritten over exact data (integers well below
// 2^24) so a Go reimplementation gives their one correct exit value and
// output. The seed picks the data formulas and jitters the sizes.

import (
	"fmt"
	"math/rand"
	"strings"
)

type kernel struct {
	name string
	src  string
	exit int64
	out  string
}

// kparams are one kernel's seeded constants: init formula
// multipliers/offsets and the size jitter.
type kparams struct {
	mul, add [3]int
	jitter   int
}

func drawParams(rng *rand.Rand) kparams {
	var p kparams
	for i := range p.mul {
		p.mul[i] = 1 + rng.Intn(16)
		p.add[i] = rng.Intn(17)
	}
	p.jitter = 64 * rng.Intn(8)
	return p
}

// initExpr is the C text of the init formula j: (i * mul + add) % 17 - 8.
func (p kparams) initExpr(j int) string {
	return fmt.Sprintf("(i * %d + %d) %% 17 - 8", p.mul[j], p.add[j])
}

func (p kparams) initVals(j, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = initVal(i, p.mul[j], p.add[j])
	}
	return xs
}

// finish1D appends the common main tail over output array out of length
// n and computes the expected exit and output from the reimplementation's
// final values.
func finish1D(sb *strings.Builder, out string, n int, vals []float64) (int64, string) {
	fmt.Fprintf(sb, "\tchk = 0;\n\tfor (i = 0; i < %d; i++)\n\t\tchk = (chk * 3 + (int)%s[i]) %% 10007;\n", n, out)
	fmt.Fprintf(sb, "\tprintf(\"%%d %%d %%d\\n\", (int)%s[0], (int)%s[%d], (int)%s[%d]);\n\treturn chk;\n}\n", out, out, n/2, out, n-1)
	var chk int64
	for _, v := range vals {
		chk = (chk*3 + int64(v)) % 10007
	}
	return chk, fmt.Sprintf("%d %d %d\n", int64(vals[0]), int64(vals[n/2]), int64(vals[n-1]))
}

// kernelNames lists the kernels in run order.
var kernelNames = []string{"backsolve", "daxpy", "copyloop", "reverseaxpy", "vectoradd", "transform4x4",
	"lagrec3", "smooth8", "wavefront", "clip", "threshacc", "sparsesaxpy", "syntheticdoall"}

// kernelLen is the base element count of the one-dimensional kernels.
const kernelLen = 16384

// buildKernels generates every kernel for seed.
func buildKernels(seed int64) []kernel {
	rng := rand.New(rand.NewSource(seed))
	var ks []kernel
	for _, name := range kernelNames {
		ks = append(ks, makeKernel(name, drawParams(rng)))
	}
	return ks
}

func makeKernel(name string, p kparams) kernel {
	n := kernelLen + p.jitter
	var sb strings.Builder
	k := kernel{name: name}
	// threeArrays declares a, b, c of length m and opens main with their
	// init loop.
	threeArrays := func(decl, call string, m int) {
		fmt.Fprintf(&sb, "float a[%d], b[%d], c[%d];\n\n%s\nint main(void)\n{\n\tint i, chk;\n", m, m, m, decl)
		fmt.Fprintf(&sb, "\tfor (i = 0; i < %d; i++) {\n\t\ta[i] = %s;\n\t\tb[i] = %s;\n\t\tc[i] = %s;\n\t}\n\t%s\n",
			m, p.initExpr(0), p.initExpr(1), p.initExpr(2), call)
	}
	a, b, c := p.initVals(0, n), p.initVals(1, n), p.initVals(2, n)
	switch name {
	case "backsolve": // E1: p[i] = z[i] * (y[i] - q[i]) with p = &x[1], q = &x[0]; z is ±1
		fmt.Fprintf(&sb, "float x[%d], y[%d], z[%d];\n\n", n, n, n)
		sb.WriteString("void backsolve(float *xv, float *yv, float *zv, int n)\n{\n\tfloat *p, *q;\n\tint i;\n\tp = &xv[1];\n\tq = &xv[0];\n\tfor (i = 0; i < n-2; i++)\n\t\tp[i] = zv[i] * (yv[i] - q[i]);\n}\n\n")
		fmt.Fprintf(&sb, "int main(void)\n{\n\tint i, chk;\n\tfor (i = 0; i < %d; i++) {\n\t\tx[i] = %s;\n\t\ty[i] = %s;\n\t\tz[i] = (i * %d + %d) %% 2 * 2 - 1;\n\t}\n\tbacksolve(x, y, z, %d);\n",
			n, p.initExpr(0), p.initExpr(1), p.mul[2], p.add[2], n)
		z := make([]float64, n)
		for i := range z {
			z[i] = float64((i*p.mul[2]+p.add[2])%2*2 - 1)
		}
		for i := 0; i < n-2; i++ {
			a[i+1] = z[i] * (b[i] - a[i])
		}
		k.exit, k.out = finish1D(&sb, "x", n, a)
	case "daxpy": // E2: the §9 pointer loop, alpha = 2
		threeArrays("void daxpy(float *x, float *y, float *z, float alpha, int n)\n{\n\tif (n <= 0)\n\t\treturn;\n\tif (alpha == 0)\n\t\treturn;\n\tfor (; n; n--)\n\t\t*x++ = *y++ + alpha * *z++;\n}\n",
			fmt.Sprintf("daxpy(a, b, c, 2.0f, %d);", n), n)
		for i := range a {
			a[i] = b[i] + 2*c[i]
		}
		k.exit, k.out = finish1D(&sb, "a", n, a)
	case "copyloop": // E3: §5.3's pointer copy while loop
		threeArrays("void copyloop(float *d, float *s, int n)\n{\n\twhile (n) {\n\t\t*d++ = *s++;\n\t\tn--;\n\t}\n}\n",
			fmt.Sprintf("copyloop(a, b, %d);", n), n)
		copy(a, b)
		k.exit, k.out = finish1D(&sb, "a", n, a)
	case "reverseaxpy": // E4: Fortran-style auxiliary induction variable
		threeArrays("void raxpy(int n)\n{\n\tint i, iv;\n\tiv = n - 1;\n\tfor (i = 0; i < n; i++) {\n\t\ta[iv] = a[iv] + b[i];\n\t\tiv = iv - 1;\n\t}\n}\n",
			fmt.Sprintf("raxpy(%d);", n), n)
		for i := 0; i < n; i++ {
			a[n-1-i] += b[i]
		}
		k.exit, k.out = finish1D(&sb, "a", n, a)
	case "vectoradd": // E7
		threeArrays("void vadd(int n)\n{\n\tint i;\n\tfor (i = 0; i < n; i++)\n\t\ta[i] = b[i] * 2.0f + c[i];\n}\n",
			fmt.Sprintf("vadd(%d);", n), n)
		for i := range a {
			a[i] = b[i]*2 + c[i]
		}
		k.exit, k.out = finish1D(&sb, "a", n, a)
	case "transform4x4": // E10: arrays embedded in structures
		// The transformed vertices go to a second array: the in-place
		// form with a local out[4] temporary races at p>1 (README).
		verts := n / 8
		fmt.Fprintf(&sb, "struct xform { float m[4][4]; };\nstruct vertex { float p[4]; };\n\nstruct xform world;\nstruct vertex verts[%d], outv[%d];\n\n", verts, verts)
		sb.WriteString("void transform(struct xform *t, struct vertex *v, struct vertex *w, int n)\n{\n\tint k, i, j;\n\tfor (k = 0; k < n; k++) {\n\t\tfor (i = 0; i < 4; i++) {\n\t\t\tfloat s;\n\t\t\ts = 0;\n\t\t\tfor (j = 0; j < 4; j++)\n\t\t\t\ts = s + t->m[i][j] * v[k].p[j];\n\t\t\tw[k].p[i] = s;\n\t\t}\n\t}\n}\n\n")
		fmt.Fprintf(&sb, "int main(void)\n{\n\tint i, j, k, chk;\n\tfor (i = 0; i < 4; i++)\n\t\tfor (j = 0; j < 4; j++)\n\t\t\tworld.m[i][j] = (i * %d + j * %d) %% 5 - 2;\n", p.mul[0], p.add[0]+1)
		fmt.Fprintf(&sb, "\tfor (k = 0; k < %d; k++)\n\t\tfor (i = 0; i < 4; i++)\n\t\t\tverts[k].p[i] = (k * %d + i + %d) %% 17 - 8;\n\ttransform(&world, verts, outv, %d);\n", verts, p.mul[1], p.add[1], verts)
		fmt.Fprintf(&sb, "\tchk = 0;\n\tfor (k = 0; k < %d; k++)\n\t\tfor (i = 0; i < 4; i++)\n\t\t\tchk = (chk * 3 + (int)outv[k].p[i]) %% 10007;\n", verts)
		fmt.Fprintf(&sb, "\tprintf(\"%%d %%d %%d\\n\", (int)outv[0].p[0], (int)outv[%d].p[1], (int)outv[%d].p[3]);\n\treturn chk;\n}\n", verts/2, verts-1)
		var m [4][4]float64
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				m[i][j] = float64((i*p.mul[0]+j*(p.add[0]+1))%5 - 2)
			}
		}
		v := make([][4]float64, verts)
		var chk int64
		for kk := range v {
			var in [4]float64
			for i := range in {
				in[i] = float64((kk*p.mul[1]+i+p.add[1])%17 - 8)
			}
			for i := 0; i < 4; i++ {
				for j := 0; j < 4; j++ {
					v[kk][i] += m[i][j] * in[j]
				}
				chk = (chk*3 + int64(v[kk][i])) % 10007
			}
		}
		k.exit = chk
		k.out = fmt.Sprintf("%d %d %d\n", int64(v[0][0]), int64(v[verts/2][1]), int64(v[verts-1][3]))
	case "lagrec3", "smooth8", "wavefront": // DOACROSS recurrences at distance 3, 8 and 32
		d := map[string]int{"lagrec3": 3, "smooth8": 8, "wavefront": 32}[name]
		rhs := map[string]string{"lagrec3": "b[i] * c[i] + b[i]", "smooth8": "b[i] * c[i]", "wavefront": "b[i] * c[i] + c[i]"}[name]
		threeArrays(fmt.Sprintf("void rec(int n)\n{\n\tint i;\n\tfor (i = %d; i < n; i++)\n\t\ta[i] = %s - a[i-%d];\n}\n", d, rhs, d),
			fmt.Sprintf("rec(%d);", n), n)
		for i := d; i < n; i++ {
			v := b[i] * c[i]
			switch name {
			case "lagrec3":
				v += b[i]
			case "wavefront":
				v += c[i]
			}
			a[i] = v - a[i-d]
		}
		k.exit, k.out = finish1D(&sb, "a", n, a)
	case "clip": // masked: saturate at 2
		threeArrays("void clip(int n, float limit)\n{\n\tint i;\n\tfor (i = 0; i < n; i++)\n\t\tif (b[i] > limit)\n\t\t\ta[i] = limit;\n}\n",
			fmt.Sprintf("clip(%d, 2.0f);", n), n)
		for i := range a {
			if b[i] > 2 {
				a[i] = 2
			}
		}
		k.exit, k.out = finish1D(&sb, "a", n, a)
	case "threshacc": // masked read-modify-write
		threeArrays("void thresh(int n, float t)\n{\n\tint i;\n\tfor (i = 0; i < n; i++)\n\t\tif (b[i] > t)\n\t\t\ta[i] = a[i] + b[i];\n}\n",
			fmt.Sprintf("thresh(%d, 1.0f);", n), n)
		for i := range a {
			if b[i] > 1 {
				a[i] += b[i]
			}
		}
		k.exit, k.out = finish1D(&sb, "a", n, a)
	case "sparsesaxpy": // masked sparse update; c is the 0/1 mask (density 1/3)
		fmt.Fprintf(&sb, "float a[%d], b[%d], c[%d];\n\nvoid ssaxpy(int n, float s)\n{\n\tint i;\n\tfor (i = 0; i < n; i++)\n\t\tif (c[i] != 0.0f)\n\t\t\ta[i] = a[i] + s * b[i];\n}\n\n", n, n, n)
		fmt.Fprintf(&sb, "int main(void)\n{\n\tint i, chk;\n\tfor (i = 0; i < %d; i++) {\n\t\ta[i] = %s;\n\t\tb[i] = %s;\n\t\tc[i] = (i * %d + %d) %% 3 / 2;\n\t}\n\tssaxpy(%d, 2.0f);\n",
			n, p.initExpr(0), p.initExpr(1), p.mul[2], p.add[2], n)
		for i := range a {
			if (i*p.mul[2]+p.add[2])%3/2 != 0 {
				a[i] += 2 * b[i]
			}
		}
		k.exit, k.out = finish1D(&sb, "a", n, a)
	case "syntheticdoall": // reps passes of a dependence-free update
		const reps = 16
		m := n / 4
		threeArrays("void doall(int n)\n{\n\tint i;\n\tfor (i = 0; i < n; i++)\n\t\ta[i] = b[i] * 2.0f + c[i] - a[i];\n}\n",
			fmt.Sprintf("for (chk = 0; chk < %d; chk++)\n\t\tdoall(%d);", reps, m), m)
		a, b, c = a[:m], b[:m], c[:m]
		for r := 0; r < reps; r++ {
			for i := range a {
				a[i] = b[i]*2 + c[i] - a[i]
			}
		}
		k.exit, k.out = finish1D(&sb, "a", m, a)
	default:
		panic("unknown kernel " + name)
	}
	k.src = sb.String()
	return k
}
