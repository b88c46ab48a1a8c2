package prog

import (
	"strings"
	"testing"

	"dvi/internal/isa"
)

// at returns the decoded instruction at pc.
func at(img *Image, pc uint64) isa.Inst {
	in, _, _ := img.AtMeta(pc)
	return *in
}

// buildCountdown builds a program whose main calls a leaf in a loop.
func buildCountdown(t *testing.T) (*Program, *Image) {
	t.Helper()
	pr := New()

	leaf := pr.Assembler("leaf")
	leaf.Add(isa.V0, isa.A0, isa.A0).Ret()

	m := pr.Assembler("main")
	m.Li(isa.S0, 10)
	m.Label("loop")
	m.Move(isa.A0, isa.S0)
	m.Call("leaf")
	m.Addi(isa.S0, isa.S0, -1)
	m.Bnez(isa.S0, "loop")
	m.Ret()

	img, err := pr.Link()
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	return pr, img
}

func TestLinkBasics(t *testing.T) {
	pr, img := buildCountdown(t)
	if img.EntryPC != img.TextBase {
		t.Errorf("entry %#x != text base %#x", img.EntryPC, img.TextBase)
	}
	// Trampoline: jal main; halt.
	in0 := at(img, img.EntryPC)
	if in0.Op != isa.JAL {
		t.Fatalf("entry inst = %v", in0)
	}
	if uint64(in0.Imm) != img.ProcAddrs["main"] {
		t.Errorf("trampoline target %#x, want main at %#x", in0.Imm, img.ProcAddrs["main"])
	}
	if at(img, img.HaltPC).Op != isa.HALT {
		t.Error("halt trampoline missing")
	}
	want := 2 + len(pr.Proc("leaf").Insts) + len(pr.Proc("main").Insts)
	if img.TextWords() != want {
		t.Errorf("text words = %d, want %d", img.TextWords(), want)
	}
}

func TestBranchResolution(t *testing.T) {
	_, img := buildCountdown(t)
	// Find the bnez and check its target equals the loop label address.
	mainAddr := img.ProcAddrs["main"]
	var bnePC uint64
	for pc := mainAddr; img.InText(pc); pc += 4 {
		if at(img, pc).Op == isa.BNE {
			bnePC = pc
			break
		}
	}
	if bnePC == 0 {
		t.Fatal("bne not found")
	}
	target, ok := isa.BranchTarget(bnePC, at(img, bnePC))
	if !ok {
		t.Fatal("no branch target")
	}
	wantTarget := mainAddr + 1*4 // label "loop" is after the Li
	if target != wantTarget {
		t.Errorf("branch target %#x, want %#x", target, wantTarget)
	}
}

func TestBackwardAndForwardBranches(t *testing.T) {
	pr := New()
	m := pr.Assembler("main")
	m.Li(isa.T0, 1)
	m.Beqz(isa.T0, "end") // forward
	m.Label("top")
	m.Addi(isa.T0, isa.T0, -1)
	m.Bnez(isa.T0, "top") // backward
	m.Label("end")
	m.Ret()
	img, err := pr.Link()
	if err != nil {
		t.Fatal(err)
	}
	base := img.ProcAddrs["main"]
	fwd, _ := isa.BranchTarget(base+4, at(img, base+4))
	if fwd != base+16 {
		t.Errorf("forward target %#x, want %#x", fwd, base+16)
	}
	back, _ := isa.BranchTarget(base+12, at(img, base+12))
	if back != base+8 {
		t.Errorf("backward target %#x, want %#x", back, base+8)
	}
}

func TestUnknownLabelErrors(t *testing.T) {
	pr := New()
	m := pr.Assembler("main")
	m.Bnez(isa.T0, "nowhere")
	m.Ret()
	if _, err := pr.Link(); err == nil {
		t.Error("link should fail on unknown label")
	}

	pr2 := New()
	m2 := pr2.Assembler("main")
	m2.Call("missing")
	m2.Ret()
	if _, err := pr2.Link(); err == nil {
		t.Error("link should fail on unknown procedure")
	}
}

func TestMissingEntryErrors(t *testing.T) {
	pr := New()
	pr.Assembler("helper").Ret()
	if _, err := pr.Link(); err == nil {
		t.Error("link should fail without main")
	}
}

func TestDuplicateProcPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate proc did not panic")
		}
	}()
	pr := New()
	pr.AddProc("f")
	pr.AddProc("f")
}

func TestDuplicateLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate label did not panic")
		}
	}()
	pr := New()
	a := pr.Assembler("main")
	a.Label("x").Label("x")
}

func TestDataLayoutAndLoadAddr(t *testing.T) {
	pr := New()
	pr.AddData(DataSym{Name: "tbl", Size: 64})
	pr.AddData(DataSym{Name: "buf", Init: []byte{1, 2, 3}})
	m := pr.Assembler("main")
	m.LoadAddr(isa.T0, "tbl")
	m.LoadAddr(isa.T1, "buf")
	m.Ret()
	img, err := pr.Link()
	if err != nil {
		t.Fatal(err)
	}
	tbl, ok := img.DataAddr("tbl")
	if !ok || tbl != DefaultDataBase {
		t.Errorf("tbl at %#x", tbl)
	}
	buf, _ := img.DataAddr("buf")
	if buf != DefaultDataBase+64 {
		t.Errorf("buf at %#x, want %#x", buf, uint64(DefaultDataBase+64))
	}
	// LUI+ORI pair must materialize the address.
	base := img.ProcAddrs["main"]
	lui, ori := at(img, base), at(img, base+4)
	got := uint64(lui.Imm)<<16 | uint64(ori.Imm)
	if got != tbl {
		t.Errorf("LoadAddr materializes %#x, want %#x", got, tbl)
	}
	// Memory image has the initialized bytes.
	memory := NewMemory(pr, img)
	if memory.Load8(buf) != 1 || memory.Load8(buf+2) != 3 {
		t.Error("initialized data not loaded")
	}
	// Text image decodes back to the same instructions.
	if w := memory.Read32(img.TextBase); w != img.Code[0] {
		t.Error("text not loaded into memory")
	}
}

func TestInsertBeforePreservesLabelsAndTargets(t *testing.T) {
	pr := New()
	m := pr.Assembler("main")
	m.Li(isa.S0, 3)
	m.Label("loop") // at index 1
	m.Addi(isa.S0, isa.S0, -1)
	m.Call("main2")
	m.Bnez(isa.S0, "loop")
	m.Ret()
	pr.Assembler("main2").Ret()

	p := pr.Proc("main")
	// Insert a kill before the call (index 2).
	p.InsertBefore(2, Inst{Inst: isa.Inst{Op: isa.KILL, Mask: isa.MaskOf(isa.S1)}})

	if li, _ := p.LabelAt("loop"); li != 1 {
		t.Errorf("label before insertion point moved to %d", li)
	}
	img, err := pr.Link()
	if err != nil {
		t.Fatal(err)
	}
	base := img.ProcAddrs["main"]
	// Instruction stream: li, addi(label), kill, jal, bne, ret.
	if at(img, base+8).Op != isa.KILL {
		t.Fatalf("kill not at expected slot: %v", at(img, base+8))
	}
	bnePC := base + 16
	if at(img, bnePC).Op != isa.BNE {
		t.Fatalf("bne not at expected slot: %v", at(img, bnePC))
	}
	target, _ := isa.BranchTarget(bnePC, at(img, bnePC))
	if target != base+4 {
		t.Errorf("branch target %#x after insertion, want %#x", target, base+4)
	}
}

func TestInsertBeforeShiftsLabelAtIndex(t *testing.T) {
	pr := New()
	m := pr.Assembler("main")
	m.Li(isa.T0, 1)
	m.Label("target")
	m.Call("f")
	m.Jump("target")
	pr.Assembler("f").Ret()

	p := pr.Proc("main")
	callIdx, _ := p.LabelAt("target")
	p.InsertBefore(callIdx, Inst{Inst: isa.Inst{Op: isa.KILL, Mask: isa.MaskOf(isa.S0)}})
	// The label must still name the call, not the kill.
	li, _ := p.LabelAt("target")
	if p.Insts[li].Op != isa.JAL {
		t.Errorf("label now names %v, want the call", p.Insts[li].Op)
	}
}

func TestProcOf(t *testing.T) {
	_, img := buildCountdown(t)
	leafAddr := img.ProcAddrs["leaf"]
	if name, ok := img.ProcOf(leafAddr); !ok || name != "leaf" {
		t.Errorf("ProcOf(leaf start) = %q", name)
	}
	mainAddr := img.ProcAddrs["main"]
	if name, ok := img.ProcOf(mainAddr + 8); !ok || name != "main" {
		t.Errorf("ProcOf(main+8) = %q", name)
	}
	if _, ok := img.ProcOf(img.TextBase); ok {
		t.Error("trampoline should not belong to a procedure")
	}
}

func TestAtOutOfRangeIsHalt(t *testing.T) {
	_, img := buildCountdown(t)
	for _, c := range []struct {
		name string
		pc   uint64
	}{
		{"below text", 0},
		{"above text", img.TextBase + uint64(len(img.Insts))*4},
		{"unaligned", img.TextBase + 2},
	} {
		in, meta, ok := img.AtMeta(c.pc)
		if in.Op != isa.HALT || meta.Class != isa.ClassHalt || ok {
			t.Errorf("%s: AtMeta = %v, class %v, ok %v; want a synthetic halt", c.name, *in, meta.Class, ok)
		}
	}
	// The real trampoline HALT is in the text, and the decoded text is
	// returned in place, not copied.
	if in, _, ok := img.AtMeta(img.HaltPC); in.Op != isa.HALT || !ok {
		t.Errorf("AtMeta(HaltPC) = %v, ok %v; want the trampoline's halt", *in, ok)
	}
	if in, _, _ := img.AtMeta(img.EntryPC); in != &img.Insts[0] {
		t.Error("AtMeta copied the decoded instruction")
	}
}

func TestFrameHelperEmitsLiveSaves(t *testing.T) {
	pr := New()
	a := pr.Assembler("main")
	epi := a.Frame(16, true, isa.S0, isa.S1)
	a.Li(isa.S0, 1)
	epi()
	img, err := pr.Link()
	if err != nil {
		t.Fatal(err)
	}
	var lvst, lvld, st, ld int
	base := img.ProcAddrs["main"]
	for pc := base; img.InText(pc); pc += 4 {
		switch at(img, pc).Op {
		case isa.LVST:
			lvst++
		case isa.LVLD:
			lvld++
		case isa.ST:
			st++
		case isa.LD:
			ld++
		}
	}
	if lvst != 2 || lvld != 2 {
		t.Errorf("live saves/restores = %d/%d, want 2/2", lvst, lvld)
	}
	if st != 1 || ld != 1 {
		t.Errorf("ra save/restore = %d/%d, want 1/1 (plain st/ld)", st, ld)
	}
}

func TestFrameStackAlignment(t *testing.T) {
	pr := New()
	a := pr.Assembler("main")
	epi := a.Frame(4, false, isa.S0) // 4+8 = 12 -> rounds to 16
	epi()
	p := pr.Proc("main")
	if p.Insts[0].Op != isa.ADDI || p.Insts[0].Imm != -16 {
		t.Errorf("prologue = %v, want addi sp, sp, -16", p.Insts[0].Inst)
	}
}

func TestDisasmListing(t *testing.T) {
	_, img := buildCountdown(t)
	lst := img.Disasm()
	for _, want := range []string{"main:", "leaf:", "main.loop:", "jal main", "halt", "ret"} {
		if !strings.Contains(lst, want) {
			t.Errorf("listing missing %q:\n%s", want, lst)
		}
	}
	plst := img.DisasmProc("main")
	if !strings.Contains(plst, "jal leaf") {
		t.Errorf("proc listing missing call:\n%s", plst)
	}
}

func TestKillHelperRejectsAlwaysLive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("kill of sp did not panic")
		}
	}()
	pr := New()
	pr.Assembler("main").Kill(isa.SP)
}

func TestEncodedImageDecodesIdentically(t *testing.T) {
	_, img := buildCountdown(t)
	for i, w := range img.Code {
		in, err := isa.Decode(w)
		if err != nil {
			t.Fatalf("word %d: %v", i, err)
		}
		if in != img.Insts[i] {
			t.Errorf("word %d: decoded %v != linked %v", i, in, img.Insts[i])
		}
	}
}
