// Package titan models the Ardent Titan: a multiprocessor whose every
// processor couples a RISC integer unit, a deeply pipelined floating-point
// unit that also executes all vector instructions, a large vector register
// file, and a pipelined path to memory shared by up to four processors
// (§2).
//
// The simulator is functional plus a scoreboard timing model: each
// register carries a ready-time, each unit (integer, floating point,
// memory) an issue-time, and instructions dispatch in order, one per
// cycle at best, stalling on operand or unit availability. Independent
// integer and floating-point instructions therefore overlap — the §6
// effect dependence-informed scheduling exploits — and vector instructions
// cost startup + length on their unit, keeping the pipeline full (§2).
package titan

import (
	"fmt"
	"strings"
	"sync"
)

// Op is an instruction opcode.
type Op int

// Opcodes.
const (
	// Integer unit.
	OpNop Op = iota
	OpLdi    // rd ← imm
	OpMov    // rd ← rs1
	OpAdd    // rd ← rs1 + rs2
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpAddi // rd ← rs1 + imm
	OpMuli // rd ← rs1 * imm
	OpNeg
	OpNot  // logical not (0/1)
	OpBnot // bitwise complement
	OpCmpEq
	OpCmpNe
	OpCmpLt
	OpCmpLe
	OpCmpGt
	OpCmpGe
	OpPid   // rd ← processor id (within a parallel region)
	OpNproc // rd ← processor count

	// Memory.
	OpLd1 // rd ← sext(mem1[rs1+imm])
	OpLd2
	OpLd4
	OpSt1 // mem[rs1+imm] ← rs2
	OpSt2
	OpSt4
	OpFld4 // fd ← mem.f32[rs1+imm]
	OpFld8
	OpFst4 // mem.f32[rs1+imm] ← fs2
	OpFst8

	// Floating point unit (scalar).
	OpFldi // fd ← fimm
	OpFmov
	OpFadd
	OpFsub
	OpFmul
	OpFdiv
	OpFneg
	OpFcmpEq // rd ← fs1 cmp fs2
	OpFcmpNe
	OpFcmpLt
	OpFcmpLe
	OpFcmpGt
	OpFcmpGe
	OpCvtIF // fd ← float(rs1)
	OpCvtFI // rd ← int(fs1)

	// Vector unit (executed by the FP unit, §2). Vd/Vs are vector
	// register file slot indices; the active length comes from the VL
	// register (OpVsetl).
	OpVsetl // VL ← rs1 (clamped to MaxVL)
	OpVld   // vrf[vd..] ← mem[rs1 + k·rs2], element kind in Imm
	OpVst   // mem[rs1 + k·rs2] ← vrf[vd..]
	OpVadd  // vd ← vs1 + vs2
	OpVsub
	OpVmul
	OpVdiv
	OpVadds // vd ← vs1 + fs2 (scalar broadcast)
	OpVsubs
	OpVsubsr // vd ← fs2 - vs1
	OpVmuls
	OpVdivs
	OpVdivsr
	OpVmov
	OpVbcast // vd[k] ← fs1 for all lanes

	// Control.
	OpJmp  // pc ← label
	OpBeqz // if rs1 == 0 branch
	OpBnez
	OpCall // call function (register-windowed)
	OpRet
	OpArg // append rs1/fs1 to the outgoing argument list
	OpFarg
	OpHalt

	// Parallel region markers (§2: spreading loop iterations among
	// processors). The enclosed code reads OpPid/OpNproc to pick its
	// share of iterations.
	OpParBegin
	OpParEnd

	// DOACROSS synchronization (arXiv:1211.4101): post publishes r[rs2]
	// into sync cell r[rs1] (monotone max), wait blocks until cell r[rs1]
	// reaches at least r[rs2]. Valid only inside a parallel region; the
	// cells live per region and reset at par.begin.
	OpPost
	OpWait

	// Vector mask unit: compares produce per-lane predicates into one of
	// NumMaskRegs mask registers; masked memory and arithmetic variants
	// suppress the effects of inactive lanes but charge the same
	// timing-table cycles as their dense forms (the pipeline still streams
	// every lane — masking gates the write-back, not the issue).
	OpVcmpLt  // mk[rd] ← vs1 < vs2, per lane
	OpVcmpLe  // mk[rd] ← vs1 <= vs2
	OpVcmpEq  // mk[rd] ← vs1 == vs2
	OpVcmpNe  // mk[rd] ← vs1 != vs2
	OpVcmpLts // mk[rd] ← vs1 < fs2 (scalar broadcast compare)
	OpVcmpLes // mk[rd] ← vs1 <= fs2
	OpVcmpEqs // mk[rd] ← vs1 == fs2
	OpVcmpNes // mk[rd] ← vs1 != fs2
	OpMand    // mk[rd] ← mk[rs1] & mk[rs2]
	OpMor     // mk[rd] ← mk[rs1] | mk[rs2]
	OpMnot    // mk[rd] ← ~mk[rs1] (over the active VL lanes)
	// Masked memory and arithmetic: the governing mask register index
	// rides in Imm bits 8.. (Imm>>8); Imm's low 8 bits keep whatever the
	// dense form used there (the element kind for vld.m/vst.m, zero for
	// arithmetic). Inactive lanes load nothing, store nothing, and keep
	// the destination slot's prior contents.
	OpVldm  // vrf[vd..] ←(mask) mem[rs1 + k·rs2]
	OpVstm  // mem[rs1 + k·rs2] ←(mask) vrf[vd..]
	OpVaddm // vd ←(mask) vs1 + vs2
	OpVsubm
	OpVmulm
	OpVdivm

	numOps // the op table's length; not an opcode
)

// NumMaskRegs is the size of the vector-mask register file: each mask
// register holds one predicate bit per vector lane (MaxVL lanes).
const NumMaskRegs = 8

// maskWords is the per-register bitset length (MaxVL lanes / 64).
const maskWords = MaxVL / 64

// NumSyncCells is the number of per-region synchronization cells post and
// wait may address (r[rs1] must be in [0, NumSyncCells)).
const NumSyncCells = 256

// Element kinds for vector memory operations (Instr.Imm).
const (
	ElemF32 = 4
	ElemF64 = 8
	ElemI32 = 1 // int32 elements, width 4
)

// MaxVL is the hardware strip length: the vector register file holds 8192
// words addressable as vectors of any length and stride; the compiler's
// strips use 32-element sections.
const MaxVL = 2048

// VRFWords is the vector register file size in words.
const VRFWords = 8192

// Instr is one instruction.
type Instr struct {
	Op   Op
	Rd   int // destination register / vector slot
	Rs1  int
	Rs2  int
	Imm  int64
	FImm float64
	Sym  string // label or callee
}

// The op table. Every per-opcode fact the back end needs apart from
// semantics lives in one row of opInfo: the disassembler's mnemonic and
// operand layout, the scoreboard timing the fast engine decodes (§2), and
// the register, memory and control effects the list scheduler (§6) and
// peephole order by. The reference interpreter's dispatch keeps its own
// switches as the independent check of this table (opinfo_test.go).

// Unit is a functional unit of one processor (§2).
type Unit uint8

const (
	UnitInt Unit = iota // integer unit: ALU, branches, mask logic
	UnitFlt             // floating-point unit: scalar FP and all vector arithmetic
	UnitMem             // the pipelined path to memory
)

// RegClass is a register file, or the implicit VL register.
type RegClass uint8

const (
	RegNone RegClass = iota
	RegInt
	RegFlt
	RegVec  // vector register file slot (wraps mod VRFWords)
	RegMask // vector-mask register (wraps mod NumMaskRegs)
	RegVL   // the vector length register set by vsetl
)

// Access is how an op touches one operand slot.
type Access uint8

const (
	NoAccess Access = iota
	Def             // written: its ready-time becomes the op's completion
	Use             // read: dispatch waits until it is ready
	// UseNoWait is read but dispatch does not wait for it: store data
	// drains through the store buffer, and the VL register has no
	// scoreboard slot (the scheduler alone orders vector ops after vsetl).
	UseNoWait
	// WaitOnly is not read, yet dispatch waits for it: the Titan timing
	// model has always charged pid/nproc a read of rs1 and vmov a read
	// of rs2.
	WaitOnly
)

// Reads reports whether the op really reads the slot (what the
// scheduler and peephole order by).
func (a Access) Reads() bool { return a == Use || a == UseNoWait }

// Waits reports whether dispatch waits on the slot's ready-time.
func (a Access) Waits() bool { return a == Use || a == WaitOnly }

// Slot indexes an instruction's operand slots.
type Slot uint8

const (
	SlotRd Slot = iota
	SlotRs1
	SlotRs2
	SlotVL   // the implicit VL register
	SlotMask // Imm>>8: the governing mask register of masked vector ops
	NumSlots
)

// Reg returns the register number in slot s of in (0 for VL).
func (in Instr) Reg(s Slot) int {
	switch s {
	case SlotRd:
		return in.Rd
	case SlotRs1:
		return in.Rs1
	case SlotRs2:
		return in.Rs2
	case SlotMask:
		return int(in.Imm >> 8)
	}
	return 0
}

// Operand is one slot's register class and access.
type Operand struct {
	Class  RegClass
	Access Access
}

// FlopClass is an op's contribution to the FLOP count.
type FlopClass uint8

const (
	FlopNone FlopClass = iota
	FlopOne            // one per retirement
	FlopVL             // one per lane of the active vector length (masked ops count every lane)
)

// MemEffect is how the scheduler orders an op against memory.
type MemEffect uint8

const (
	MemNone MemEffect = iota
	// MemLoad reads memory: it orders against stores, not other loads.
	MemLoad
	// MemStore writes or synchronizes memory and orders against every
	// memory op: a post publishes only after the stores before it, and
	// nothing a wait guards may rise above it (a load-like wait would let
	// a later load read the guarded data early).
	MemStore
)

// Flow says whether an op ends a straight-line region.
type Flow uint8

const (
	FlowNone Flow = iota
	// FlowArg appends to the outgoing argument list, so the list
	// scheduler keeps it in place between the regions it schedules.
	FlowArg
	// FlowControl transfers or may transfer control: it ends a basic
	// block for the scheduler and a scratch live range for the peephole.
	FlowControl
)

// Format is an operand print layout; register prefixes come from the
// slot classes (f float, v vector, m mask, r otherwise).
type Format uint8

const (
	FmtNone     Format = iota // op
	FmtRdImm                  // op rd, imm
	FmtRdFImm                 // op rd, fimm
	FmtRdRs1                  // op rd, rs1
	FmtRdRs1Imm               // op rd, rs1, imm
	FmtRdRs1Rs2               // op rd, rs1, rs2
	FmtRs1                    // op rs1
	FmtRs1Rs2                 // op rs1, rs2
	FmtLoad                   // op rd, imm(rs1)
	FmtStore                  // op rs2, imm(rs1)
	FmtVecMem                 // op rd, (rs1), rs2, ek<imm>
	FmtSym                    // op sym
	FmtRs1Sym                 // op rs1, sym
)

// OpInfo is one opcode's row of the op table.
type OpInfo struct {
	Name   string
	Format Format
	Unit   Unit
	// Lat is issue-to-result latency and Occ the cycles the unit stays
	// busy; both grow by VLScale·max(vl, 1) (vectors cost startup + N).
	Lat, Occ, VLScale uint8
	Flops             FlopClass
	Regs              [NumSlots]Operand // indexed by Slot
	Mem               MemEffect
	Flow              Flow
}

// Info returns op's row; an opcode outside the table gets the timing
// every unknown op has always been charged and no operands.
func (op Op) Info() OpInfo {
	if op >= 0 && op < numOps {
		return opInfo[op]
	}
	return OpInfo{Name: fmt.Sprintf("op(%d)", int(op)), Format: FmtRdRs1Rs2, Lat: 1, Occ: 1}
}

// String is op's mnemonic.
func (op Op) String() string { return op.Info().Name }

// Operand shorthands for the table: the first letter is the access
// (d Def, u Use, n UseNoWait, w WaitOnly), the second the class (I int,
// F float, V vector, M mask, L the VL register).
var (
	dI, uI, nI, wI = Operand{RegInt, Def}, Operand{RegInt, Use}, Operand{RegInt, UseNoWait}, Operand{RegInt, WaitOnly}
	dF, uF, nF     = Operand{RegFlt, Def}, Operand{RegFlt, Use}, Operand{RegFlt, UseNoWait}
	dV, uV, nV, wV = Operand{RegVec, Def}, Operand{RegVec, Use}, Operand{RegVec, UseNoWait}, Operand{RegVec, WaitOnly}
	dM, uM         = Operand{RegMask, Def}, Operand{RegMask, Use}
	dL, nL         = Operand{RegVL, Def}, Operand{RegVL, UseNoWait}
	__             = Operand{}
)

type slots = [NumSlots]Operand

// opInfo is the op table, indexed by Op. Columns: name, format, unit,
// lat, occ, vl scale, flops, operand slots {rd, rs1, rs2, vl, mask},
// memory effect, flow.
var opInfo = [numOps]OpInfo{
	OpNop:   {"nop", FmtNone, UnitInt, 1, 1, 0, FlopNone, slots{}, MemNone, FlowNone},
	OpLdi:   {"ldi", FmtRdImm, UnitInt, 1, 1, 0, FlopNone, slots{dI}, MemNone, FlowNone},
	OpMov:   {"mov", FmtRdRs1, UnitInt, 1, 1, 0, FlopNone, slots{dI, uI}, MemNone, FlowNone},
	OpAdd:   {"add", FmtRdRs1Rs2, UnitInt, 1, 1, 0, FlopNone, slots{dI, uI, uI}, MemNone, FlowNone},
	OpSub:   {"sub", FmtRdRs1Rs2, UnitInt, 1, 1, 0, FlopNone, slots{dI, uI, uI}, MemNone, FlowNone},
	OpMul:   {"mul", FmtRdRs1Rs2, UnitInt, 4, 1, 0, FlopNone, slots{dI, uI, uI}, MemNone, FlowNone},
	OpDiv:   {"div", FmtRdRs1Rs2, UnitInt, 12, 8, 0, FlopNone, slots{dI, uI, uI}, MemNone, FlowNone},
	OpRem:   {"rem", FmtRdRs1Rs2, UnitInt, 12, 8, 0, FlopNone, slots{dI, uI, uI}, MemNone, FlowNone},
	OpAnd:   {"and", FmtRdRs1Rs2, UnitInt, 1, 1, 0, FlopNone, slots{dI, uI, uI}, MemNone, FlowNone},
	OpOr:    {"or", FmtRdRs1Rs2, UnitInt, 1, 1, 0, FlopNone, slots{dI, uI, uI}, MemNone, FlowNone},
	OpXor:   {"xor", FmtRdRs1Rs2, UnitInt, 1, 1, 0, FlopNone, slots{dI, uI, uI}, MemNone, FlowNone},
	OpShl:   {"shl", FmtRdRs1Rs2, UnitInt, 1, 1, 0, FlopNone, slots{dI, uI, uI}, MemNone, FlowNone},
	OpShr:   {"shr", FmtRdRs1Rs2, UnitInt, 1, 1, 0, FlopNone, slots{dI, uI, uI}, MemNone, FlowNone},
	OpAddi:  {"addi", FmtRdRs1Imm, UnitInt, 1, 1, 0, FlopNone, slots{dI, uI}, MemNone, FlowNone},
	OpMuli:  {"muli", FmtRdRs1Imm, UnitInt, 4, 1, 0, FlopNone, slots{dI, uI}, MemNone, FlowNone},
	OpNeg:   {"neg", FmtRdRs1, UnitInt, 1, 1, 0, FlopNone, slots{dI, uI}, MemNone, FlowNone},
	OpNot:   {"not", FmtRdRs1, UnitInt, 1, 1, 0, FlopNone, slots{dI, uI}, MemNone, FlowNone},
	OpBnot:  {"bnot", FmtRdRs1, UnitInt, 1, 1, 0, FlopNone, slots{dI, uI}, MemNone, FlowNone},
	OpCmpEq: {"cmpeq", FmtRdRs1Rs2, UnitInt, 1, 1, 0, FlopNone, slots{dI, uI, uI}, MemNone, FlowNone},
	OpCmpNe: {"cmpne", FmtRdRs1Rs2, UnitInt, 1, 1, 0, FlopNone, slots{dI, uI, uI}, MemNone, FlowNone},
	OpCmpLt: {"cmplt", FmtRdRs1Rs2, UnitInt, 1, 1, 0, FlopNone, slots{dI, uI, uI}, MemNone, FlowNone},
	OpCmpLe: {"cmple", FmtRdRs1Rs2, UnitInt, 1, 1, 0, FlopNone, slots{dI, uI, uI}, MemNone, FlowNone},
	OpCmpGt: {"cmpgt", FmtRdRs1Rs2, UnitInt, 1, 1, 0, FlopNone, slots{dI, uI, uI}, MemNone, FlowNone},
	OpCmpGe: {"cmpge", FmtRdRs1Rs2, UnitInt, 1, 1, 0, FlopNone, slots{dI, uI, uI}, MemNone, FlowNone},
	// pid/nproc print in the three-register layout they always have.
	OpPid:   {"pid", FmtRdRs1Rs2, UnitInt, 1, 1, 0, FlopNone, slots{dI, wI}, MemNone, FlowNone},
	OpNproc: {"nproc", FmtRdRs1Rs2, UnitInt, 1, 1, 0, FlopNone, slots{dI, wI}, MemNone, FlowNone},

	OpLd1:  {"ld1", FmtLoad, UnitMem, 6, 1, 0, FlopNone, slots{dI, uI}, MemLoad, FlowNone},
	OpLd2:  {"ld2", FmtLoad, UnitMem, 6, 1, 0, FlopNone, slots{dI, uI}, MemLoad, FlowNone},
	OpLd4:  {"ld4", FmtLoad, UnitMem, 6, 1, 0, FlopNone, slots{dI, uI}, MemLoad, FlowNone},
	OpSt1:  {"st1", FmtStore, UnitMem, 1, 1, 0, FlopNone, slots{__, uI, nI}, MemStore, FlowNone},
	OpSt2:  {"st2", FmtStore, UnitMem, 1, 1, 0, FlopNone, slots{__, uI, nI}, MemStore, FlowNone},
	OpSt4:  {"st4", FmtStore, UnitMem, 1, 1, 0, FlopNone, slots{__, uI, nI}, MemStore, FlowNone},
	OpFld4: {"fld4", FmtLoad, UnitMem, 6, 1, 0, FlopNone, slots{dF, uI}, MemLoad, FlowNone},
	OpFld8: {"fld8", FmtLoad, UnitMem, 6, 1, 0, FlopNone, slots{dF, uI}, MemLoad, FlowNone},
	OpFst4: {"fst4", FmtStore, UnitMem, 1, 1, 0, FlopNone, slots{__, uI, nF}, MemStore, FlowNone},
	OpFst8: {"fst8", FmtStore, UnitMem, 1, 1, 0, FlopNone, slots{__, uI, nF}, MemStore, FlowNone},

	OpFldi:   {"fldi", FmtRdFImm, UnitFlt, 6, 1, 0, FlopNone, slots{dF}, MemNone, FlowNone},
	OpFmov:   {"fmov", FmtRdRs1, UnitFlt, 6, 1, 0, FlopNone, slots{dF, uF}, MemNone, FlowNone},
	OpFadd:   {"fadd", FmtRdRs1Rs2, UnitFlt, 6, 1, 0, FlopOne, slots{dF, uF, uF}, MemNone, FlowNone},
	OpFsub:   {"fsub", FmtRdRs1Rs2, UnitFlt, 6, 1, 0, FlopOne, slots{dF, uF, uF}, MemNone, FlowNone},
	OpFmul:   {"fmul", FmtRdRs1Rs2, UnitFlt, 6, 1, 0, FlopOne, slots{dF, uF, uF}, MemNone, FlowNone},
	OpFdiv:   {"fdiv", FmtRdRs1Rs2, UnitFlt, 18, 12, 0, FlopOne, slots{dF, uF, uF}, MemNone, FlowNone},
	OpFneg:   {"fneg", FmtRdRs1, UnitFlt, 6, 1, 0, FlopNone, slots{dF, uF}, MemNone, FlowNone},
	OpFcmpEq: {"fcmpeq", FmtRdRs1Rs2, UnitFlt, 6, 1, 0, FlopNone, slots{dI, uF, uF}, MemNone, FlowNone},
	OpFcmpNe: {"fcmpne", FmtRdRs1Rs2, UnitFlt, 6, 1, 0, FlopNone, slots{dI, uF, uF}, MemNone, FlowNone},
	OpFcmpLt: {"fcmplt", FmtRdRs1Rs2, UnitFlt, 6, 1, 0, FlopNone, slots{dI, uF, uF}, MemNone, FlowNone},
	OpFcmpLe: {"fcmple", FmtRdRs1Rs2, UnitFlt, 6, 1, 0, FlopNone, slots{dI, uF, uF}, MemNone, FlowNone},
	OpFcmpGt: {"fcmpgt", FmtRdRs1Rs2, UnitFlt, 6, 1, 0, FlopNone, slots{dI, uF, uF}, MemNone, FlowNone},
	OpFcmpGe: {"fcmpge", FmtRdRs1Rs2, UnitFlt, 6, 1, 0, FlopNone, slots{dI, uF, uF}, MemNone, FlowNone},
	OpCvtIF:  {"cvtif", FmtRdRs1, UnitFlt, 6, 1, 0, FlopNone, slots{dF, uI}, MemNone, FlowNone},
	OpCvtFI:  {"cvtfi", FmtRdRs1, UnitFlt, 6, 1, 0, FlopNone, slots{dI, uF}, MemNone, FlowNone},

	// Vector memory streams one element per cycle after a short setup
	// (§2); vector stores drain through the store buffer like scalar ones.
	OpVsetl:  {"vsetl", FmtRs1, UnitInt, 1, 1, 0, FlopNone, slots{__, uI, __, dL}, MemNone, FlowNone},
	OpVld:    {"vld", FmtVecMem, UnitMem, 6, 2, 1, FlopNone, slots{dV, uI, uI, nL}, MemLoad, FlowNone},
	OpVst:    {"vst", FmtVecMem, UnitMem, 6, 2, 1, FlopNone, slots{nV, uI, uI, nL}, MemStore, FlowNone},
	OpVadd:   {"vadd", FmtRdRs1Rs2, UnitFlt, 8, 4, 1, FlopVL, slots{dV, uV, uV, nL}, MemNone, FlowNone},
	OpVsub:   {"vsub", FmtRdRs1Rs2, UnitFlt, 8, 4, 1, FlopVL, slots{dV, uV, uV, nL}, MemNone, FlowNone},
	OpVmul:   {"vmul", FmtRdRs1Rs2, UnitFlt, 8, 4, 1, FlopVL, slots{dV, uV, uV, nL}, MemNone, FlowNone},
	OpVdiv:   {"vdiv", FmtRdRs1Rs2, UnitFlt, 12, 8, 2, FlopVL, slots{dV, uV, uV, nL}, MemNone, FlowNone},
	OpVadds:  {"vadds", FmtRdRs1Rs2, UnitFlt, 8, 4, 1, FlopVL, slots{dV, uV, uF, nL}, MemNone, FlowNone},
	OpVsubs:  {"vsubs", FmtRdRs1Rs2, UnitFlt, 8, 4, 1, FlopVL, slots{dV, uV, uF, nL}, MemNone, FlowNone},
	OpVsubsr: {"vsubsr", FmtRdRs1Rs2, UnitFlt, 8, 4, 1, FlopVL, slots{dV, uV, uF, nL}, MemNone, FlowNone},
	OpVmuls:  {"vmuls", FmtRdRs1Rs2, UnitFlt, 8, 4, 1, FlopVL, slots{dV, uV, uF, nL}, MemNone, FlowNone},
	OpVdivs:  {"vdivs", FmtRdRs1Rs2, UnitFlt, 12, 8, 2, FlopVL, slots{dV, uV, uF, nL}, MemNone, FlowNone},
	OpVdivsr: {"vdivsr", FmtRdRs1Rs2, UnitFlt, 12, 8, 2, FlopVL, slots{dV, uV, uF, nL}, MemNone, FlowNone},
	OpVmov:   {"vmov", FmtRdRs1, UnitFlt, 8, 4, 1, FlopNone, slots{dV, uV, wV, nL}, MemNone, FlowNone},
	OpVbcast: {"vbcast", FmtRdRs1, UnitFlt, 8, 4, 1, FlopNone, slots{dV, uF, __, nL}, MemNone, FlowNone},

	OpJmp:  {"jmp", FmtSym, UnitInt, 2, 1, 0, FlopNone, slots{}, MemNone, FlowControl},
	OpBeqz: {"beqz", FmtRs1Sym, UnitInt, 2, 1, 0, FlopNone, slots{__, uI}, MemNone, FlowControl},
	OpBnez: {"bnez", FmtRs1Sym, UnitInt, 2, 1, 0, FlopNone, slots{__, uI}, MemNone, FlowControl},
	OpCall: {"call", FmtSym, UnitInt, 10, 10, 0, FlopNone, slots{}, MemNone, FlowControl},
	OpRet:  {"ret", FmtNone, UnitInt, 8, 8, 0, FlopNone, slots{}, MemNone, FlowControl},
	OpArg:  {"arg", FmtRs1, UnitInt, 1, 1, 0, FlopNone, slots{__, uI}, MemNone, FlowArg},
	OpFarg: {"farg", FmtRs1, UnitInt, 1, 1, 0, FlopNone, slots{__, uF}, MemNone, FlowArg},
	OpHalt: {"halt", FmtNone, UnitInt, 1, 1, 0, FlopNone, slots{}, MemNone, FlowControl},

	OpParBegin: {"par.begin", FmtNone, UnitInt, 1, 1, 0, FlopNone, slots{}, MemNone, FlowControl},
	OpParEnd:   {"par.end", FmtNone, UnitInt, 1, 1, 0, FlopNone, slots{}, MemNone, FlowControl},

	// A post publishes at its store-like completion; a wait resolves
	// after waitLatency once its threshold is met (sync.go).
	OpPost: {"post", FmtRs1Rs2, UnitMem, 1, 1, 0, FlopNone, slots{__, uI, uI}, MemStore, FlowNone},
	OpWait: {"wait", FmtRs1Rs2, UnitMem, waitLatency, 1, 0, FlopNone, slots{__, uI, uI}, MemStore, FlowNone},

	// Masked forms charge their dense twins' timing and flops: every lane
	// streams through the pipe, the mask gates only the write-back.
	OpVcmpLt:  {"vcmp.lt", FmtRdRs1Rs2, UnitFlt, 8, 4, 1, FlopNone, slots{dM, uV, uV, nL}, MemNone, FlowNone},
	OpVcmpLe:  {"vcmp.le", FmtRdRs1Rs2, UnitFlt, 8, 4, 1, FlopNone, slots{dM, uV, uV, nL}, MemNone, FlowNone},
	OpVcmpEq:  {"vcmp.eq", FmtRdRs1Rs2, UnitFlt, 8, 4, 1, FlopNone, slots{dM, uV, uV, nL}, MemNone, FlowNone},
	OpVcmpNe:  {"vcmp.ne", FmtRdRs1Rs2, UnitFlt, 8, 4, 1, FlopNone, slots{dM, uV, uV, nL}, MemNone, FlowNone},
	OpVcmpLts: {"vcmp.lts", FmtRdRs1Rs2, UnitFlt, 8, 4, 1, FlopNone, slots{dM, uV, uF, nL}, MemNone, FlowNone},
	OpVcmpLes: {"vcmp.les", FmtRdRs1Rs2, UnitFlt, 8, 4, 1, FlopNone, slots{dM, uV, uF, nL}, MemNone, FlowNone},
	OpVcmpEqs: {"vcmp.eqs", FmtRdRs1Rs2, UnitFlt, 8, 4, 1, FlopNone, slots{dM, uV, uF, nL}, MemNone, FlowNone},
	OpVcmpNes: {"vcmp.nes", FmtRdRs1Rs2, UnitFlt, 8, 4, 1, FlopNone, slots{dM, uV, uF, nL}, MemNone, FlowNone},
	OpMand:    {"mand", FmtRdRs1Rs2, UnitInt, 2, 1, 0, FlopNone, slots{dM, uM, uM, nL}, MemNone, FlowNone},
	OpMor:     {"mor", FmtRdRs1Rs2, UnitInt, 2, 1, 0, FlopNone, slots{dM, uM, uM, nL}, MemNone, FlowNone},
	OpMnot:    {"mnot", FmtRdRs1, UnitInt, 2, 1, 0, FlopNone, slots{dM, uM, __, nL}, MemNone, FlowNone},
	OpVldm:    {"vld.m", FmtVecMem, UnitMem, 6, 2, 1, FlopNone, slots{dV, uI, uI, nL, uM}, MemLoad, FlowNone},
	OpVstm:    {"vst.m", FmtVecMem, UnitMem, 6, 2, 1, FlopNone, slots{nV, uI, uI, nL, uM}, MemStore, FlowNone},
	OpVaddm:   {"vadd.m", FmtRdRs1Rs2, UnitFlt, 8, 4, 1, FlopVL, slots{dV, uV, uV, nL, uM}, MemNone, FlowNone},
	OpVsubm:   {"vsub.m", FmtRdRs1Rs2, UnitFlt, 8, 4, 1, FlopVL, slots{dV, uV, uV, nL, uM}, MemNone, FlowNone},
	OpVmulm:   {"vmul.m", FmtRdRs1Rs2, UnitFlt, 8, 4, 1, FlopVL, slots{dV, uV, uV, nL, uM}, MemNone, FlowNone},
	OpVdivm:   {"vdiv.m", FmtRdRs1Rs2, UnitFlt, 12, 8, 2, FlopVL, slots{dV, uV, uV, nL, uM}, MemNone, FlowNone},
}

// regPrefix is the disassembly letter of a register class.
var regPrefix = [...]byte{RegNone: 'r', RegInt: 'r', RegFlt: 'f', RegVec: 'v', RegMask: 'm', RegVL: 'r'}

// String disassembles one instruction. A masked op prints its element
// kind from Imm's low byte and appends its governing mask register.
func (in Instr) String() string {
	info := in.Op.Info()
	n := info.Name
	p := func(s Slot) byte { return regPrefix[info.Regs[s].Class] }
	masked := info.Regs[SlotMask].Access != NoAccess
	var s string
	switch info.Format {
	case FmtNone:
		return n
	case FmtRdImm:
		return fmt.Sprintf("%s %c%d, %d", n, p(SlotRd), in.Rd, in.Imm)
	case FmtRdFImm:
		return fmt.Sprintf("%s %c%d, %g", n, p(SlotRd), in.Rd, in.FImm)
	case FmtRdRs1:
		s = fmt.Sprintf("%s %c%d, %c%d", n, p(SlotRd), in.Rd, p(SlotRs1), in.Rs1)
	case FmtRdRs1Imm:
		return fmt.Sprintf("%s %c%d, %c%d, %d", n, p(SlotRd), in.Rd, p(SlotRs1), in.Rs1, in.Imm)
	case FmtRdRs1Rs2:
		s = fmt.Sprintf("%s %c%d, %c%d, %c%d", n, p(SlotRd), in.Rd, p(SlotRs1), in.Rs1, p(SlotRs2), in.Rs2)
	case FmtRs1:
		return fmt.Sprintf("%s %c%d", n, p(SlotRs1), in.Rs1)
	case FmtRs1Rs2:
		return fmt.Sprintf("%s %c%d, %c%d", n, p(SlotRs1), in.Rs1, p(SlotRs2), in.Rs2)
	case FmtLoad:
		return fmt.Sprintf("%s %c%d, %d(r%d)", n, p(SlotRd), in.Rd, in.Imm, in.Rs1)
	case FmtStore:
		return fmt.Sprintf("%s %c%d, %d(r%d)", n, p(SlotRs2), in.Rs2, in.Imm, in.Rs1)
	case FmtVecMem:
		ek := in.Imm
		if masked {
			ek &= 0xff
		}
		s = fmt.Sprintf("%s v%d, (r%d), r%d, ek%d", n, in.Rd, in.Rs1, in.Rs2, ek)
	case FmtSym:
		return fmt.Sprintf("%s %s", n, in.Sym)
	case FmtRs1Sym:
		return fmt.Sprintf("%s %c%d, %s", n, p(SlotRs1), in.Rs1, in.Sym)
	}
	if masked {
		s += fmt.Sprintf(", m%d", in.Imm>>8)
	}
	return s
}

// Func is one compiled function.
type Func struct {
	Name   string
	Instrs []Instr
	Labels map[string]int // label → instruction index
}

// Program is a linked executable image.
type Program struct {
	Funcs map[string]*Func
	// Data is the initial memory image for globals.
	Data []byte
	// DataBase is the address where Data is loaded.
	DataBase int64
	// GlobalAddr maps global names to addresses (for tests and loaders).
	GlobalAddr map[string]int64
	// MemSize is the total memory to allocate (stack at top).
	MemSize int64

	// Decoded form for the fast engine (engine.go), built once on first
	// Run and then shared read-only by every Machine simulating this
	// program — Programs are always handled by pointer. Mutating Funcs
	// after a Run is not supported.
	decOnce sync.Once
	decoded map[string]*dfunc
}

// Disassemble renders a function listing.
func (f *Func) Disassemble() string {
	var sb strings.Builder
	rev := map[int][]string{}
	for l, i := range f.Labels {
		rev[i] = append(rev[i], l)
	}
	fmt.Fprintf(&sb, "%s:\n", f.Name)
	for i, in := range f.Instrs {
		for _, l := range rev[i] {
			fmt.Fprintf(&sb, "%s:\n", l)
		}
		fmt.Fprintf(&sb, "    %s\n", in)
	}
	for _, l := range rev[len(f.Instrs)] {
		fmt.Fprintf(&sb, "%s:\n", l)
	}
	return sb.String()
}

// Calling convention: arguments in r8.. / f8.., results in r2 / f2. The
// hardware provides register windows: CALL snapshots the register file and
// RET restores everything except the result registers.
const (
	RegSP     = 1 // stack pointer
	RegRetInt = 2
	RegRetFlt = 2
	RegArg0   = 8 // first integer argument register
	FRegArg0  = 8 // first float argument register
	// The Titan's register set is unusually large (§2: the vector register
	// file doubles as 8192 scalar registers); the model exposes 64 of
	// each kind to the compiler.
	NumIntRegs = 64
	NumFltRegs = 64
)
