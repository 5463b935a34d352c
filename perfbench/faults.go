package main

// Two fixed units reproduce faults still open in the compiler. They do
// not depend on the seed, sit in every compile-corpus round, and fail
// every time under one configuration until the compiler is fixed; the
// run counts them as failed operations and stays correct.

import (
	"fmt"
	"strings"
)

// promoSrc is the minimised §6 register-promotion miscompile: under
// ScalarOptions the loop carries a[i-1] in a register seeded wrongly and
// returns 55. promoWant is the C semantics, computed below.
const promoSrc = `/* fault-promo: section 6 register promotion */
float a[64], b[64];

int promo(void)
{
	int i;
	float s;
	for (i = 0; i < 64; i++) {
		a[i] = i;
		b[i] = 1.0f;
	}
	s = 0;
	for (i = 5; i < 60; i++) {
		a[i] = b[i];
		s = s + a[i - 1];
	}
	return (int)s;
}
`

// promoWant evaluates promoSrc: s = a[4] + 54 * b[i] = 4 + 54 = 58.
func promoWant() int64 {
	var a, b [64]float64
	for i := range a {
		a[i], b[i] = float64(i), 1
	}
	s := 0.0
	for i := 5; i < 60; i++ {
		a[i] = b[i]
		s += a[i-1]
	}
	return int64(s)
}

// regsLoops recurrence loops over eight arrays in one procedure exhaust
// codegen's loop variable registers at FullOptions ("codegen: loop
// variable not in a register"); ScalarOptions compiles it.
const regsLoops = 7

// regsUnit builds that procedure and evaluates it: loop l runs
// x[i] = y[i] - x[i-1] with x, y the arrays l and l+1 (mod 8).
func regsUnit() unit {
	const n = 64
	var sb strings.Builder
	sb.WriteString("/* fault-regs: codegen loop variable registers */\nfloat a0[64], a1[64], a2[64], a3[64], a4[64], a5[64], a6[64], a7[64];\n\n")
	sb.WriteString("int regs(void)\n{\n\tint i, chk;\n\tfor (i = 0; i < 64; i++) {\n")
	// A vectorizable init loop (its pointer temporaries take registers
	// too): a0 = i % 5, a1 = i % 3, the rest constants.
	var arr [8][n]float64
	sb.WriteString("\t\ta0[i] = i % 5;\n\t\ta1[i] = i % 3;\n")
	for a := range arr {
		if a >= 2 {
			fmt.Fprintf(&sb, "\t\ta%d[i] = %d;\n", a, a-1)
		}
		for i := range arr[a] {
			arr[a][i] = [8]float64{float64(i % 5), float64(i % 3), 1, 2, 3, 4, 5, 6}[a]
		}
	}
	sb.WriteString("\t}\n")
	for l := 0; l < regsLoops; l++ {
		x, y := l%8, (l+1)%8
		fmt.Fprintf(&sb, "\tfor (i = 1; i < 64; i++)\n\t\ta%d[i] = a%d[i] - a%d[i - 1];\n", x, y, x)
		for i := 1; i < n; i++ {
			arr[x][i] = arr[y][i] - arr[x][i-1]
		}
	}
	sb.WriteString("\tchk = 0;\n\tfor (i = 0; i < 64; i++)\n\t\tchk = (chk * 3 + (int)a0[i]) % 10007;\n\treturn chk;\n}\n")
	var chk int64
	for i := 0; i < n; i++ {
		chk = (chk*3 + int64(arr[0][i])) % 10007
	}
	return unit{Name: "fault-regs", Src: sb.String(), Entries: []entry{{Name: "regs", Want: chk}}}
}

func faultUnits() []unit {
	return []unit{{Name: "fault-promo", Src: promoSrc, Entries: []entry{{Name: "promo", Want: promoWant()}}}, regsUnit()}
}

// Each known fault fails in one way only: a different failure of the
// same unit (another wrong exit, a run-time fault, another compile
// error) is a new defect and makes the run incorrect.
const (
	promoFault = "entry promo: exit 55 output \"\", want exit 58"
	regsFault  = "codegen: loop variable not in a register"
)

// knownFault reports whether unit failing under configuration cfg with
// reason is one of the two faults kept on purpose.
func knownFault(unit, cfg, reason string) bool {
	switch {
	case unit == "fault-promo" && cfg == "scalar":
		return reason == promoFault
	case unit == "fault-regs" && cfg == "full":
		return strings.HasPrefix(reason, "compile: ") && strings.Contains(reason, regsFault)
	}
	return false
}
