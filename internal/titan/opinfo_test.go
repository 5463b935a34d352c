package titan

import (
	"fmt"
	"math/rand"
	"testing"
)

// scoreboard is the timing state one charge or dispatch touches.
type scoreboard struct {
	clock, cycles, flops      int64
	intReady                  [NumIntRegs]int64
	fltReady                  [NumFltRegs]int64
	vecReady                  [VRFWords]int64
	maskReady                 [NumMaskRegs]int64
	intUnit, fltUnit, memUnit int64
}

func (c *cpu) scoreboard() scoreboard {
	return scoreboard{c.clock, c.cycles, c.flops, c.intReady, c.fltReady, c.vecReady, c.maskReady,
		c.intUnit, c.fltUnit, c.memUnit}
}

func (c *cpu) setScoreboard(s scoreboard) {
	c.clock, c.cycles, c.flops = s.clock, s.cycles, s.flops
	c.intReady, c.fltReady, c.vecReady, c.maskReady = s.intReady, s.fltReady, s.vecReady, s.maskReady
	c.intUnit, c.fltUnit, c.memUnit = s.intUnit, s.fltUnit, s.memUnit
}

// TestOpTableMatchesReferenceDispatch checks every op table row against
// the reference interpreter's dispatch, which states the timing model
// with its own switches: for every opcode, at several vector lengths and
// randomized register and unit ready-times, the fast engine's decoded
// charge must leave exactly the scoreboard, unit clocks, dispatch clock,
// completion horizon and FLOP count dispatch leaves.
func TestOpTableMatchesReferenceDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fast, ref := new(cpu), new(cpu)
	var base scoreboard
	// reg draws a register number: usually a valid scalar register, and
	// for vector and mask slots sometimes one that must wrap.
	reg := func(info OpInfo, sl Slot) int {
		if c := info.Regs[sl].Class; (c == RegVec || c == RegMask) && rng.Intn(3) == 0 {
			return rng.Intn(4*VRFWords) - 2*VRFWords
		}
		return rng.Intn(NumIntRegs)
	}
	for op := Op(0); op < numOps; op++ {
		info := op.Info()
		for _, vl := range []int64{0, 1, 37, MaxVL} {
			for trial := 0; trial < 24; trial++ {
				in := Instr{Op: op, Rd: reg(info, SlotRd), Rs1: reg(info, SlotRs1), Rs2: reg(info, SlotRs2),
					Imm: int64(rng.Intn(24)-8)<<8 | ElemF64, Sym: "L"}
				base.clock = rng.Int63n(40)
				base.cycles = base.clock + rng.Int63n(60)
				base.flops = rng.Int63n(1000)
				base.intUnit, base.fltUnit, base.memUnit = rng.Int63n(60), rng.Int63n(60), rng.Int63n(60)
				for i := range base.intReady {
					base.intReady[i] = rng.Int63n(80)
					base.fltReady[i] = rng.Int63n(80)
				}
				for i := range base.maskReady {
					base.maskReady[i] = rng.Int63n(80)
				}
				for _, r := range []int{in.Rd, in.Rs1, in.Rs2} {
					base.vecReady[vslot(r)] = rng.Int63n(80)
				}
				fast.setScoreboard(base)
				ref.setScoreboard(base)
				fast.vl, ref.vl = vl, vl
				fast.vlc = max(vl, 1)

				f := &Func{Name: "t", Instrs: []Instr{in}, Labels: map[string]int{"L": 0}}
				d := decodeFunc(f).code[0]
				fast.charge(&d)
				ref.dispatch(in)
				if got, want := fast.scoreboard(), ref.scoreboard(); got != want {
					t.Fatalf("%v (vl=%d): decoded row leaves %s, reference dispatch %s",
						in, vl, describe(got, base), describe(want, base))
				}
			}
		}
	}
}

// describe renders what a charge changed relative to before.
func describe(s, before scoreboard) string {
	out := fmt.Sprintf("{clock %d cycles %d flops %d units %d/%d/%d",
		s.clock, s.cycles, s.flops, s.intUnit, s.fltUnit, s.memUnit)
	for i := range s.intReady {
		if s.intReady[i] != before.intReady[i] {
			out += fmt.Sprintf(" r%d=%d", i, s.intReady[i])
		}
		if s.fltReady[i] != before.fltReady[i] {
			out += fmt.Sprintf(" f%d=%d", i, s.fltReady[i])
		}
	}
	for i := range s.vecReady {
		if s.vecReady[i] != before.vecReady[i] {
			out += fmt.Sprintf(" v%d=%d", i, s.vecReady[i])
		}
	}
	for i := range s.maskReady {
		if s.maskReady[i] != before.maskReady[i] {
			out += fmt.Sprintf(" m%d=%d", i, s.maskReady[i])
		}
	}
	return out + "}"
}

// TestOpTableShape pins the invariants the table's readers rely on: the
// fast engine times only rs1, rs2 and the mask slot and records only rd,
// the scheduler's fixed operand storage holds every row, and only vsetl
// writes VL.
func TestOpTableShape(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		info := op.Info()
		defs, uses := 0, 0
		for sl, o := range info.Regs {
			s := Slot(sl)
			switch {
			case o.Access == Def:
				defs++
				if s != SlotRd && !(s == SlotVL && op == OpVsetl) {
					t.Errorf("%v defines slot %d", op, s)
				}
			case o.Access.Reads():
				uses++
			}
			if o.Access.Waits() && (s == SlotRd || s == SlotVL) {
				t.Errorf("%v: dispatch cannot wait on slot %d", op, s)
			}
			if (o.Access == NoAccess) != (o.Class == RegNone) {
				t.Errorf("%v slot %d: class %d with access %d", op, s, o.Class, o.Access)
			}
		}
		if defs > 1 || uses > 5 {
			t.Errorf("%v: %d defs, %d uses exceed the scheduler's storage", op, defs, uses)
		}
		if info.Unit > UnitMem || info.Lat == 0 || info.Occ == 0 || info.VLScale > 2 {
			t.Errorf("%v: bad timing row %+v", op, info)
		}
	}
}
