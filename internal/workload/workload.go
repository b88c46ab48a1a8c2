// Package workload provides the seven synthetic benchmark programs that
// stand in for the paper's SPEC95int suite (compress95, go, ijpeg, li,
// vortex, perl, gcc). Each program is authored in the mini-IR and compiled
// by internal/compiler; each structurally mimics its namesake so that the
// properties the paper's optimizations exploit — call frequency,
// callee-saved register usage, context-sensitive liveness at call sites,
// memory bandwidth demand — arise from program structure rather than from
// tuned constants. DESIGN.md records the substitution rationale.
package workload

import (
	"fmt"
	"sort"

	"dvi/internal/compiler"
	"dvi/internal/ir"
	"dvi/internal/prog"
	"dvi/internal/rewrite"
)

// Spec describes one benchmark program.
type Spec struct {
	Name     string
	Describe string
	// Build constructs the IR module; scale multiplies the outer
	// iteration count (scale 1 is roughly 200k-600k dynamic
	// instructions).
	Build func(scale int) *ir.Module
	// Asm, when non-empty, backs the spec with textual assembly instead
	// of an IR builder: synthetic specs for client-submitted programs
	// (internal/service) carry their source with the spec, so a build
	// needs no side lookup that could expire. Build is nil then, and the
	// Name must content-address the text so equal sources share one
	// BuildKey.
	Asm string
}

// All returns the seven benchmarks in the paper's Figure 3 order.
func All() []Spec {
	return []Spec{
		specCompress(),
		specGo(),
		specIjpeg(),
		specLi(),
		specVortex(),
		specPerl(),
		specGcc(),
	}
}

// Names returns the benchmark names in order.
func Names() []string {
	var ns []string
	for _, s := range All() {
		ns = append(ns, s.Name)
	}
	return ns
}

// ByName finds a benchmark.
func ByName(name string) (Spec, bool) {
	for _, s := range All() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// SaveRestoreActive returns the six benchmarks the paper uses for the
// save/restore elimination studies (Figure 9: "the six benchmarks that
// exhibit significant save and restore activity" — compress is excluded).
func SaveRestoreActive() []Spec {
	var out []Spec
	for _, s := range All() {
		if s.Name != "compress" {
			out = append(out, s)
		}
	}
	return out
}

// BuildOptions selects the binary flavour.
type BuildOptions struct {
	EDVI   bool
	Policy rewrite.Policy
	// Infer derives the kill annotations with the interprocedural
	// inference pass (rewrite.Infer) instead of the compiler's
	// liveness-assisted rewriter: the program is built plain and the
	// analysis discovers every kill from the machine code alone. When
	// set, EDVI is ignored.
	Infer bool
}

// BuildKey uniquely identifies one compiled binary flavour: a benchmark
// name, a scale factor, and the build options. It is comparable and is
// the memoization key for build caches (internal/runner): two builds with
// equal keys produce identical Program/Image pairs, so the compiled
// artifacts may be shared freely — they are read-only after linking
// (every emulator and machine copies the memory image it mutates).
type BuildKey struct {
	Name   string
	Scale  int
	EDVI   bool
	Policy rewrite.Policy
	Infer  bool
}

// Key returns the build cache key for compiling s at scale with opt. The
// scale is clamped exactly as CompileSpec clamps it, so keys that compile
// identically compare equal.
func (s Spec) Key(scale int, opt BuildOptions) BuildKey {
	if scale < 1 {
		scale = 1
	}
	k := BuildKey{Name: s.Name, Scale: scale, Infer: opt.Infer}
	if !opt.Infer {
		k.EDVI = opt.EDVI
	}
	k.Policy = opt.Policy
	return k
}

// String renders the key for logs and progress labels.
func (k BuildKey) String() string {
	flavor := "plain"
	switch {
	case k.Infer:
		flavor = "infer"
		if k.Policy == rewrite.KillsAtDeath {
			flavor = "infer@death"
		}
	case k.EDVI:
		flavor = "edvi"
		if k.Policy == rewrite.KillsAtDeath {
			flavor = "edvi@death"
		}
	}
	return fmt.Sprintf("%s/x%d/%s", k.Name, k.Scale, flavor)
}

// CompileSpec builds and links one benchmark. The Infer flavour compiles
// the program plain and lets the interprocedural analysis discover the
// kills the annotation-assisted path gets from the compiler's liveness.
// An assembly-backed spec parses its source, then annotates it with the
// binary rewriter (Infer, or InsertKills for E-DVI); scale does not
// apply to it. Its errors are unwrapped: the service answers them to the
// client that sent the source.
func CompileSpec(s Spec, scale int, opt BuildOptions) (*prog.Program, *prog.Image, error) {
	switch {
	case s.Asm != "":
		return compileAsm(s.Asm, opt)
	case s.Build == nil:
		return nil, nil, fmt.Errorf("workload %q: neither an IR builder nor assembly", s.Name)
	}
	if scale < 1 {
		scale = 1
	}
	m := s.Build(scale)
	pr, err := compiler.Compile(m, compiler.Options{EDVI: opt.EDVI && !opt.Infer, Policy: opt.Policy})
	if err != nil {
		return nil, nil, fmt.Errorf("workload %s: %w", s.Name, err)
	}
	if opt.Infer {
		if _, err := rewrite.Infer(pr, rewrite.Options{Policy: opt.Policy}); err != nil {
			return nil, nil, fmt.Errorf("workload %s: %w", s.Name, err)
		}
	}
	img, err := pr.Link()
	if err != nil {
		return nil, nil, fmt.Errorf("workload %s: %w", s.Name, err)
	}
	return pr, img, nil
}

func compileAsm(src string, opt BuildOptions) (*prog.Program, *prog.Image, error) {
	pr, err := prog.ParseAsm(src)
	if err != nil {
		return nil, nil, err
	}
	switch {
	case opt.Infer:
		if _, err := rewrite.Infer(pr, rewrite.Options{Policy: opt.Policy}); err != nil {
			return nil, nil, err
		}
	case opt.EDVI:
		if _, err := rewrite.InsertKills(pr, rewrite.Options{Policy: opt.Policy}); err != nil {
			return nil, nil, err
		}
	}
	img, err := pr.Link()
	if err != nil {
		return nil, nil, err
	}
	return pr, img, nil
}

// --- shared IR helpers ---

// addRand installs a 64-bit xorshift-style PRNG:
//
//	func rand() -> next pseudo-random value (also stored in rand_seed)
func addRand(m *ir.Module) {
	m.AddData(prog.DataSym{Name: "rand_seed", Size: 8, Init: le64(0x9E3779B97F4A7C15)})
	f := m.Func("rand", 0)
	b := f.Block("entry")
	base := b.AddrOf("rand_seed")
	s := b.Load(base, 0)
	s = b.Xor(s, b.ShlI(s, 13))
	s = b.Xor(s, b.ShrI(s, 7))
	s = b.Xor(s, b.ShlI(s, 17))
	b.Store(base, 0, s)
	b.Ret(s)
}

// le64 renders a little-endian 8-byte initializer.
func le64(v uint64) []byte {
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	return b
}

// loopN emits a counted loop: body receives the induction variable and the
// body block, and returns the block where its control flow ends (the same
// block for straight-line bodies). Blocks created: prefix+"_head",
// prefix+"_body", prefix+"_done"; the caller continues in the returned
// done block.
func loopN(f *ir.Func, from *ir.Block, prefix string, n ir.Value, body func(b *ir.Block, i ir.Value) *ir.Block) *ir.Block {
	i := f.Var()
	from.SetI(i, 0)
	from.Jmp(prefix + "_head")
	head := f.Block(prefix + "_head")
	head.Br(ir.GE, i, n, prefix+"_done", prefix+"_body")
	b := f.Block(prefix + "_body")
	end := body(b, i)
	end.Set(i, end.AddI(i, 1))
	end.Jmp(prefix + "_head")
	return f.Block(prefix + "_done")
}

// sortedNames is a test helper exposed for deterministic iteration.
func sortedNames() []string {
	ns := Names()
	sort.Strings(ns)
	return ns
}
