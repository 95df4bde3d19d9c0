// Command roptrace generates, converts, inspects, validates and clones
// memory traces in the repo's two interchange formats: Ramulator/DRAMSim2
// style text ("<cycle> <R|W> <hex-addr>") and the compact binary .ropt
// format. It also regenerates the committed workload zoo under
// testdata/traces/ through the simulator's capture path.
// docs/TRACES.md is the format spec and recipe book.
//
// Usage:
//
//	roptrace gen -bench lbm [-n 100000] [-seed 1] -o lbm.ropt
//	roptrace convert -in trace.txt -out trace.ropt [-block 4096]
//	roptrace inspect -in trace.ropt [-n 5]
//	roptrace validate -in trace.ropt
//	roptrace clone -in trace.ropt [-seed 1] [-window 25000] [-stats-out fit.json]
//	roptrace zoo -dir testdata/traces [-insts 600000]
//
// gen writes a synthetic benchmark's generated record stream. gen and
// convert pick the output format from the output file's extension
// (.ropt is binary, anything else text); convert sniffs its input by
// content.
// validate exits 1 on any malformed input. clone fits a synthetic
// workload profile to the trace and prints the fitted parameters and
// the fit error; -stats-out writes the trace.fit.* metric snapshot.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ropsim"
	"ropsim/internal/stats"
	"ropsim/internal/trace"
	"ropsim/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "convert":
		err = cmdConvert(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "validate":
		err = cmdValidate(os.Args[2:])
	case "clone":
		err = cmdClone(os.Args[2:])
	case "zoo":
		err = cmdZoo(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "roptrace: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "roptrace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: roptrace <subcommand> [flags]

subcommands:
  gen       write a synthetic benchmark's trace
  convert   convert between text and .ropt trace formats
  inspect   print a trace's header, counts and leading records
  validate  fully decode a trace, exit 1 if malformed
  clone     fit a synthetic workload profile to a trace
  zoo       regenerate the committed workload zoo (testdata/traces)

See docs/TRACES.md for formats and recipes.
`)
}

func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	in := fs.String("in", "", "input trace file (text or .ropt, sniffed by content)")
	out := fs.String("out", "", "output file (.ropt extension selects binary, else text)")
	block := fs.Int("block", trace.DefaultBlockRecords, "records per .ropt block")
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("convert: -in and -out are required")
	}
	recs, err := trace.LoadFile(*in)
	if err != nil {
		return err
	}
	if err := writeTrace(*out, recs, *block); err != nil {
		return err
	}
	fmt.Printf("%s: %d records -> %s\n", *in, len(recs), *out)
	return nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	bench := fs.String("bench", "libquantum", "benchmark whose generator to run")
	n := fs.Int("n", 100_000, "records to generate")
	seed := fs.Int64("seed", 1, "generator seed")
	out := fs.String("o", "", "output file (.ropt extension selects binary, else text)")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("gen: -o is required")
	}
	prof, err := workload.Get(*bench)
	if err != nil {
		return err
	}
	recs := workload.Take(workload.NewGenerator(prof, *seed), *n)
	if err := writeTrace(*out, recs, trace.DefaultBlockRecords); err != nil {
		return err
	}
	fmt.Printf("%s: %d records -> %s\n", *bench, len(recs), *out)
	return nil
}

// writeTrace writes recs to path as .ropt in blocks of block records
// when the path ends in .ropt, else in the text grammar.
func writeTrace(path string, recs []workload.Record, block int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if filepath.Ext(path) == ".ropt" {
		err = trace.EncodeRoptBlocked(f, recs, block)
	} else {
		err = trace.WriteTraceText(f, recs)
	}
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	in := fs.String("in", "", "input trace file (text or .ropt)")
	n := fs.Int("n", 5, "leading records to print")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("inspect: -in is required")
	}
	if t, err := trace.ReadRoptFile(*in); err == nil {
		fmt.Printf("%s: ropt v%d, %d records, %d blocks of %d\n",
			*in, trace.Version, t.Records(), t.Blocks(), t.BlockRecords())
		s := t.Stream()
		printHead(s, *n)
		return s.Err()
	}
	recs, err := trace.LoadFile(*in)
	if err != nil {
		return err
	}
	fmt.Printf("%s: text, %d records\n", *in, len(recs))
	printHead(workload.NewSliceStream(recs), *n)
	return nil
}

func printHead(s workload.Stream, n int) {
	for i, r := range workload.Take(s, n) {
		op := "R"
		if r.Write {
			op = "W"
		}
		fmt.Printf("  [%d] gap=%d line=%#x %s\n", i, r.Gap, r.Line, op)
	}
}

func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	in := fs.String("in", "", "input trace file (text or .ropt)")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("validate: -in is required")
	}
	recs, err := trace.LoadFile(*in)
	if err != nil {
		return err
	}
	reads := 0
	for _, r := range recs {
		if !r.Write {
			reads++
		}
	}
	fmt.Printf("%s: OK, %d records (%d reads, %d writes)\n", *in, len(recs), reads, len(recs)-reads)
	return nil
}

func cmdClone(args []string) error {
	fs := flag.NewFlagSet("clone", flag.ExitOnError)
	in := fs.String("in", "", "input trace file (text or .ropt)")
	seed := fs.Int64("seed", 1, "generation seed for the clone's validation trace")
	window := fs.Int("window", trace.DefaultCloneWindow, "burstiness window in instructions")
	statsOut := fs.String("stats-out", "", "write the trace.fit.* metric snapshot to this file (JSON)")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("clone: -in is required")
	}
	recs, err := trace.LoadFile(*in)
	if err != nil {
		return err
	}
	fit, err := trace.CloneWindow(recs, *seed, *window)
	if err != nil {
		return err
	}
	p := fit.Profile
	fmt.Printf("fitted profile for %s (%d records):\n", *in, len(recs))
	fmt.Printf("  OnGapMean=%.1f OnMeanInsts=%.0f OffMeanInsts=%.0f\n",
		p.OnGapMean, p.OnMeanInsts, p.OffMeanInsts)
	fmt.Printf("  StreamFrac=%.3f ReadFrac=%.3f WSLines=%d FootprintLines=%d\n",
		p.StreamFrac, p.ReadFrac, p.WSLines, p.FootprintLines)
	fmt.Printf("  target:   APKI=%.2f seq=%.3f lambda=%.3f beta=%.3f\n",
		fit.Target.APKI, fit.Target.SeqFrac, fit.Target.Lambda, fit.Target.Beta)
	fmt.Printf("  achieved: APKI=%.2f seq=%.3f lambda=%.3f beta=%.3f\n",
		fit.Achieved.APKI, fit.Achieved.SeqFrac, fit.Achieved.Lambda, fit.Achieved.Beta)
	fmt.Printf("  fit error: %.4f\n", fit.FitError())
	if *statsOut != "" {
		reg := stats.NewRegistry()
		fit.RegisterMetrics(reg.Sub("trace.fit"))
		f, err := os.Create(*statsOut)
		if err != nil {
			return err
		}
		if err := reg.Snapshot().WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

// zooInstructions is the pinned per-core budget the committed zoo
// traces are captured with; changing it changes the committed bytes.
const zooInstructions = 600_000

func cmdZoo(args []string) error {
	fs := flag.NewFlagSet("zoo", flag.ExitOnError)
	dir := fs.String("dir", "testdata/traces", "output directory for the zoo .ropt files")
	insts := fs.Int64("insts", zooInstructions, "per-core instruction budget for the capture runs")
	fs.Parse(args)
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	for _, name := range ropsim.ZooBenchmarks() {
		cfg := ropsim.Default(name)
		cfg.Instructions = *insts
		cfg.CaptureTraces = true
		res, err := ropsim.Run(cfg)
		if err != nil {
			return fmt.Errorf("zoo %s: %w", name, err)
		}
		recs := res.CoreTraces[0]
		out := filepath.Join(*dir, name+".ropt")
		if err := writeTrace(out, recs, trace.DefaultBlockRecords); err != nil {
			return err
		}
		fmt.Printf("%-10s %6d records -> %s\n", name, len(recs), out)
	}
	fmt.Println("zoo:", strings.Join(ropsim.ZooBenchmarks(), " "))
	return nil
}
