package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"

	"dvi/internal/compiler"
	"dvi/internal/ir"
	"dvi/internal/prog"
	"dvi/internal/service"
	"dvi/internal/workload"
)

// The request mixes. There are no production traces of dvid traffic.
// The request kinds come from the wire API (API.md) and the CI smoke
// tests: simulate on the built-in workloads with design-grid machine
// overrides and some two-context runs, annotate in both modes on client
// assembly, ctxswitch, /v2 batches, and client-assembly simulate where a
// share of the programs is new to the daemon. Every request is drawn
// from a fixed catalogue whose responses are pinned (pins.json); the
// seed only chooses the order and the programs.
//
// The budgets and the class weights come from no source; they are
// unverified choices. The CI smokes and API.md's examples simulate 50k
// to 1M instructions. The mix simulates 2k, chosen so that the ooo core
// carries under half of serve's client-observed time (0.46 at 2k, 0.68
// at 8k) and the daemon's own layers, builds and annotation carry the
// rest; that share follows from the choice, not from measured traffic.
// The weights are chosen so that no class boundary sits near p50 or p99:
// the simulate classes carry the median, and the slowest class (batches,
// 8%) holds serve's p99 inside it.

const (
	simInsts    = 2_000  // committed-instruction budget of a simulate request
	smtInsts    = 2_000  // budget of a two-context run
	switchInsts = 40_000 // ctxswitch budget (functional, so cheaper per instruction)
	warmInsts   = 500    // budget of a set-up warm-up request
	batchJobs   = 4      // jobs per /v2 batch

	// programPool is how many distinct client programs exist; knownPrograms
	// of them recur (the daemon has seen them since set-up), the rest are
	// new the first time a run draws them.
	programPool   = 1024
	knownPrograms = 16
)

// entry is one catalogue request with the ID its pin is stored under.
type entry struct {
	id    string
	class string
	req   service.JobRequest
}

// machine design-grid variants applied to built-in simulate requests.
var gridVariants = []struct {
	name  string
	level string
	m     *service.MachineOverrides
	infer bool
}{
	{"full", "full", nil, false},
	{"none", "none", nil, false},
	{"idvi", "idvi", nil, false},
	{"full-r42", "full", &service.MachineOverrides{PhysRegs: 42}, false},
	{"none-r42", "none", &service.MachineOverrides{PhysRegs: 42}, false},
	{"full-r50", "full", &service.MachineOverrides{PhysRegs: 50}, false},
	{"full-port1", "full", &service.MachineOverrides{CachePorts: 1}, false},
	{"full-narrow", "full", &service.MachineOverrides{IssueWidth: 2, WindowSize: 32}, false},
	{"infer", "full", nil, true},
}

var (
	catOnce sync.Once
	catList []entry
	catByID map[string]entry
)

// catalogue returns every request the mixes can send, in a fixed order.
func catalogue() []entry {
	catOnce.Do(func() {
		catByID = map[string]entry{}
		add := func(e entry) {
			catList = append(catList, e)
			catByID[e.id] = e
		}
		for _, w := range workload.Names() {
			for _, v := range gridVariants {
				add(entry{id: "sim/" + w + "/" + v.name, class: "simulate", req: simJob(&service.SimulateRequest{
					Workload: w, MaxInsts: simInsts, DVILevel: v.level, Machine: v.m, Infer: v.infer})})
			}
			add(entry{id: "smt/" + w, class: "smt", req: simJob(&service.SimulateRequest{
				Workload: w, MaxInsts: smtInsts, Contexts: 2, FetchPolicy: "icount"})})
			for _, iv := range []uint64{97, 997} {
				add(entry{id: "switch/" + w + "/" + strconv.FormatUint(iv, 10), class: "ctxswitch", req: service.JobRequest{
					Kind: "ctxswitch", CtxSwitch: &service.CtxSwitchRequest{Workload: w, Interval: iv, MaxInsts: switchInsts}}})
			}
		}
		for i := 0; i < programPool; i++ {
			asm := clientProgram(i)
			add(entry{id: progID(i, "sim"), class: "client-sim", req: simJob(&service.SimulateRequest{Asm: asm, MaxInsts: simInsts})})
			for _, mode := range []string{"rewrite", "infer"} {
				add(entry{id: progID(i, mode), class: "annotate-" + mode, req: service.JobRequest{
					Kind: "annotate", Annotate: &service.AnnotateRequest{Asm: asm, Mode: mode}}})
			}
		}
	})
	return catList
}

func simJob(r *service.SimulateRequest) service.JobRequest {
	return service.JobRequest{Kind: "simulate", Simulate: r}
}

func progID(i int, what string) string { return "prog/" + strconv.Itoa(i) + "/" + what }

// op is one client operation: a /v1 call, a /v2 batch, or the fleet's
// GET /v1/workloads.
type op struct {
	class string
	path  string // "v1", "v2" or "get"
	jobs  []entry
}

// mixWeight is one class of a mix with its share of operations.
type mixWeight struct {
	class  string
	weight int
}

// serveMix and fleetMix are the class shares (percent of operations).
var (
	serveMix = []mixWeight{
		{"simulate", 50}, {"client-known", 8}, {"client-new", 6}, {"annotate-rewrite", 7},
		{"annotate-infer", 7}, {"ctxswitch", 8}, {"smt", 6}, {"batch", 8},
	}
	fleetMix = []mixWeight{
		{"simulate", 50}, {"client-known", 10}, {"annotate-rewrite", 6}, {"annotate-infer", 6},
		{"ctxswitch", 8}, {"smt", 6}, {"batch", 8}, {"v2-single", 3}, {"workloads", 3},
	}
)

// stream is a seeded, endless sequence of operations shared by the
// client connections: next hands out operations in a fixed order.
type stream struct {
	mu      sync.Mutex
	rnd     *rand.Rand
	mix     []mixWeight
	total   int
	newProg []int // permutation of the never-seen client programs
	nextNew int
}

func newStream(seed int64, mix []mixWeight) *stream {
	catalogue()
	s := &stream{rnd: rand.New(rand.NewSource(seed)), mix: mix}
	for _, m := range mix {
		s.total += m.weight
	}
	s.newProg = s.rnd.Perm(programPool - knownPrograms)
	return s
}

// builtins lists the catalogue entries of one class of built-in requests.
func builtins(class string) []entry {
	var out []entry
	for _, e := range catalogue() {
		if e.class == class {
			out = append(out, e)
		}
	}
	return out
}

var (
	simEntries    = sync.OnceValue(func() []entry { return builtins("simulate") })
	smtEntries    = sync.OnceValue(func() []entry { return builtins("smt") })
	switchEntries = sync.OnceValue(func() []entry { return builtins("ctxswitch") })
)

// next returns the next operation.
func (s *stream) next() op {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.rnd.Intn(s.total)
	class := s.mix[len(s.mix)-1].class
	for _, m := range s.mix {
		if r < m.weight {
			class = m.class
			break
		}
		r -= m.weight
	}
	switch class {
	case "batch":
		o := op{class: class, path: "v2"}
		for i := 0; i < batchJobs; i++ {
			o.jobs = append(o.jobs, s.pick([]string{"simulate", "ctxswitch", "annotate-rewrite"}[s.rnd.Intn(3)]))
		}
		return o
	case "v2-single":
		return op{class: class, path: "v2", jobs: []entry{s.pick("simulate")}}
	case "workloads":
		return op{class: class, path: "get"}
	}
	return op{class: class, path: "v1", jobs: []entry{s.pick(class)}}
}

// pick draws one catalogue entry of a class. Caller holds s.mu.
func (s *stream) pick(class string) entry {
	switch class {
	case "simulate":
		es := simEntries()
		return es[s.rnd.Intn(len(es))]
	case "smt":
		es := smtEntries()
		return es[s.rnd.Intn(len(es))]
	case "ctxswitch":
		es := switchEntries()
		return es[s.rnd.Intn(len(es))]
	case "client-known":
		return catByID[progID(s.rnd.Intn(knownPrograms), "sim")]
	case "client-new":
		// Each new program is drawn once per run; a run long enough to
		// exhaust the pool wraps around to programs it has seen.
		i := knownPrograms + s.newProg[s.nextNew%len(s.newProg)]
		s.nextNew++
		return catByID[progID(i, "sim")]
	case "annotate-rewrite", "annotate-infer":
		mode := class[len("annotate-"):]
		return catByID[progID(s.rnd.Intn(programPool), mode)]
	}
	panic("perfbench: unknown class " + class)
}

// warmups returns one cheap request per build key a mix uses, so set-up
// covers every cold build: each built-in workload in each binary flavour
// and each recurring client program.
func warmups() []service.SimulateRequest {
	var out []service.SimulateRequest
	for _, w := range workload.Names() {
		for _, f := range []struct {
			level string
			infer bool
		}{{"full", false}, {"none", false}, {"full", true}} {
			out = append(out, service.SimulateRequest{Workload: w, MaxInsts: warmInsts, DVILevel: f.level, Infer: f.infer})
		}
	}
	for i := 0; i < knownPrograms; i++ {
		out = append(out, service.SimulateRequest{Asm: clientProgram(i), MaxInsts: warmInsts})
	}
	return out
}

// --- client programs ---

var (
	progMu    sync.Mutex
	progCache = map[int]string{}
)

// clientProgram returns client program i as assembly text. Programs are
// generated from i alone, compiled by the repository's compiler as a
// client toolchain would, and differ in structure: helper count, call
// graph, arithmetic, memory traffic and trip counts.
func clientProgram(i int) string {
	progMu.Lock()
	defer progMu.Unlock()
	if s, ok := progCache[i]; ok {
		return s
	}
	pr, err := compiler.Compile(genModule(i), compiler.Options{})
	if err != nil {
		panic(fmt.Sprintf("perfbench: client program %d: %v", i, err))
	}
	s := prog.FormatAsm(pr)
	progCache[i] = s
	return s
}

// genModule builds client program i: a main loop calling a random DAG of
// helpers that keep values live across their calls (so they use
// callee-saved registers, which the paper's saves and restores are
// about) and touch a data buffer.
func genModule(i int) *ir.Module {
	r := rand.New(rand.NewSource(int64(i)*7919 + 1))
	m := ir.NewModule()
	bufWords := 16 << r.Intn(3)
	m.AddData(prog.DataSym{Name: "buf", Size: bufWords * 8})
	helpers := 2 + r.Intn(5)
	for h := 0; h < helpers; h++ {
		f := m.Func("h"+strconv.Itoa(h), 2)
		b := f.Block("entry")
		vals := []ir.Value{f.Param(0), f.Param(1)}
		pickv := func() ir.Value { return vals[r.Intn(len(vals))] }
		steps := 3 + r.Intn(7)
		for k := 0; k < steps; k++ {
			var v ir.Value
			switch r.Intn(7) {
			case 0:
				v = b.Add(pickv(), pickv())
			case 1:
				v = b.Xor(pickv(), b.ShlI(pickv(), int64(1+r.Intn(7))))
			case 2:
				v = b.MulI(pickv(), int64(3+2*r.Intn(8)))
			case 3:
				v = b.Sub(pickv(), b.ShrI(pickv(), int64(1+r.Intn(5))))
			case 4:
				off := b.ShlI(b.AndI(pickv(), int64(bufWords-1)), 3)
				v = b.Load(b.Add(b.AddrOf("buf"), off), 0)
			case 5:
				off := b.ShlI(b.AndI(pickv(), int64(bufWords-1)), 3)
				b.Store(b.Add(b.AddrOf("buf"), off), 0, pickv())
				v = b.AddI(pickv(), int64(r.Intn(100)))
			default:
				if h > 0 {
					v = b.Call("h"+strconv.Itoa(r.Intn(h)), pickv(), pickv())
				} else {
					v = b.OrI(pickv(), int64(r.Intn(255)))
				}
			}
			vals = append(vals, v)
		}
		acc := vals[len(vals)-1]
		for _, v := range vals[2 : len(vals)-1] {
			if r.Intn(3) == 0 {
				acc = b.Xor(acc, v)
			}
		}
		b.Ret(acc)
	}
	f := m.Func("main", 0)
	b := f.Block("entry")
	acc := f.Var()
	b.SetI(acc, int64(r.Intn(1000)))
	trips := b.Const(int64(150 + r.Intn(250)))
	i0 := f.Var()
	b.SetI(i0, 0)
	b.Jmp("head")
	head := f.Block("head")
	head.Br(ir.GE, i0, trips, "done", "body")
	body := f.Block("body")
	calls := 1 + r.Intn(3)
	for c := 0; c < calls; c++ {
		v := body.Call("h"+strconv.Itoa(helpers-1-r.Intn(min(helpers, 2))), i0, acc)
		body.Set(acc, body.Xor(acc, v))
	}
	body.Set(i0, body.AddI(i0, 1))
	body.Jmp("head")
	done := f.Block("done")
	done.Out(0, acc)
	done.Ret(ir.NoValue)
	return m
}

// classQuantiles prints per-class latency quantiles (traced runs), so the
// mix can be checked for class boundaries near p50 and p99.
func classQuantiles(byClass map[string][]float64, all []float64) []string {
	var lines []string
	names := make([]string, 0, len(byClass))
	for k := range byClass {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		xs := byClass[k]
		p50, _ := percentile(xs, 50)
		p90, _ := percentile(xs, 90)
		mx, _ := percentile(xs, 100)
		lines = append(lines, fmt.Sprintf("class %-16s share %5.1f%%  p50 %7.2fms  p90 %7.2fms  max %7.2fms",
			k, 100*float64(len(xs))/float64(len(all)), p50, p90, mx))
	}
	p50, _ := percentile(all, 50)
	p99, _ := percentile(all, 99)
	lines = append(lines, fmt.Sprintf("all %d ops: p50 %.2fms p99 %.2fms", len(all), p50, p99))
	return lines
}
