package main

import (
	"strings"
	"testing"

	"dvi/internal/prog"
)

// Client programs must be distinct programs, not textual variants: the
// instruction streams differ, not just comments or names.
func TestClientProgramsAreDistinct(t *testing.T) {
	seen := map[string]int{}
	for i := 0; i < 64; i++ {
		pr, err := prog.ParseAsm(clientProgram(i))
		if err != nil {
			t.Fatalf("program %d does not parse: %v", i, err)
		}
		var b strings.Builder
		for _, p := range pr.Procs {
			for _, in := range p.Insts {
				b.WriteString(in.Op.String())
				b.WriteByte(' ')
			}
		}
		if j, dup := seen[b.String()]; dup {
			t.Fatalf("programs %d and %d have the same instruction stream", j, i)
		}
		seen[b.String()] = i
	}
}
