package isa

// BranchTarget computes the control transfer target of a decoded
// instruction located at pc. Conditional branches encode a signed word
// offset relative to the next instruction; J and JAL carry an absolute
// word-aligned address. Register-indirect jumps (JR, JALR) have no static
// target and return ok=false.
func BranchTarget(pc uint64, in Inst) (target uint64, ok bool) {
	switch OpClass(in.Op) {
	case ClassBranch:
		return pc + InstBytes + uint64(in.Imm)*InstBytes, true
	case ClassJump:
		if in.Op == J || in.Op == JAL {
			return uint64(in.Imm), true
		}
	}
	return 0, false
}
