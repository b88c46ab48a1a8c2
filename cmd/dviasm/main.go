// dviasm compiles a workload and inspects the result: disassembly
// listings, static code statistics, and the DVI annotations the rewriter
// inserted.
//
// Usage:
//
//	dviasm -bench li                 # static summary
//	dviasm -bench li -proc li_eval   # one procedure's listing
//	dviasm -bench li -dump           # full listing
//	dviasm -bench li -asm            # symbolic assembly (prog.FormatAsm),
//	                                 # the dvid service's wire format
package main

import (
	"flag"
	"fmt"
	"os"

	"dvi/internal/isa"
	"dvi/internal/prog"
	"dvi/internal/rewrite"
	"dvi/internal/workload"
)

func main() {
	var (
		bench   = flag.String("bench", "gcc", "benchmark name")
		scale   = flag.Int("scale", 1, "workload scale")
		noEDVI  = flag.Bool("noedvi", false, "build without kill annotations")
		infer   = flag.Bool("infer", false, "derive kill annotations with the interprocedural inference pass instead of the compiler-assisted rewriter")
		atDeath = flag.Bool("atdeath", false, "use the kills-at-death encoding")
		proc    = flag.String("proc", "", "disassemble a single procedure")
		dump    = flag.Bool("dump", false, "dump the full listing")
		asm     = flag.Bool("asm", false, "dump symbolic assembly (parseable; the dvid wire format)")
	)
	flag.Parse()

	spec, ok := workload.ByName(*bench)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q; have %v\n", *bench, workload.Names())
		os.Exit(2)
	}
	bopt := workload.BuildOptions{EDVI: !*noEDVI, Infer: *infer}
	if *atDeath {
		bopt.Policy = rewrite.KillsAtDeath
	}
	pr, img, err := workload.CompileSpec(spec, *scale, bopt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	switch {
	case *asm:
		fmt.Print(prog.FormatAsm(pr))
	case *proc != "":
		if _, ok := img.ProcAddrs[*proc]; !ok {
			fmt.Fprintf(os.Stderr, "no procedure %q; procedures:\n", *proc)
			for _, p := range pr.Procs {
				fmt.Fprintf(os.Stderr, "  %s\n", p.Name)
			}
			os.Exit(2)
		}
		fmt.Print(img.DisasmProc(*proc))
	case *dump:
		fmt.Print(img.Disasm())
	default:
		var kills, lvst, lvld int
		for _, in := range img.Insts {
			switch in.Op {
			case isa.KILL:
				kills++
			case isa.LVST:
				lvst++
			case isa.LVLD:
				lvld++
			}
		}
		flavor := "edvi"
		switch {
		case *infer:
			flavor = "infer"
		case *noEDVI:
			flavor = "plain"
		}
		fmt.Printf("benchmark   %s (scale %d, %s)\n", spec.Name, *scale, flavor)
		fmt.Printf("procedures  %d\n", len(pr.Procs))
		fmt.Printf("text        %d instructions (%d bytes)\n", img.TextWords(), img.TextWords()*4)
		fmt.Printf("kills       %d static\n", kills)
		fmt.Printf("live-stores %d static, live-loads %d static\n", lvst, lvld)
		fmt.Printf("entry       %#x, data %#x..%#x\n", img.EntryPC, img.DataBase, img.DataEnd)
		fmt.Println("\nprocedures (use -proc NAME for a listing):")
		for _, p := range pr.Procs {
			fmt.Printf("  %-16s %4d insts at %#x\n", p.Name, len(p.Insts), img.ProcAddrs[p.Name])
		}
	}
}
