// Command bench is the repository's benchmark. One run measures one
// workload for a fixed time with a single closed-loop client and prints
// every metric by name and unit, ending with one JSON line:
//
//	bash bench/run.sh --workload paper-cold --seed 1 --seconds 20 --trace 0
//
// With -trace 1 the run replays each job through the public calls of every
// layer with spans, a CPU profile and allocation counts, and reports the
// per-layer metrics instead. Other modes:
//
//	-record out.json [-reps 5]   every workload, reps runs each, in child processes
//	-compare base.json head.json one verdict per workload and metric
//	-pin                         regenerate testdata/pins.json
//
// See README.md for the workloads, the metrics and the layer mapping.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	var o runOptions
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload to run")
	fs.Uint64Var(&o.seed, "seed", 0, "seed of the job order")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds per run")
	fs.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics")
	record := fs.String("record", "", "run every workload -reps times in child processes and write the record to this file")
	reps := fs.Int("reps", 5, "runs per workload for -record")
	compare := fs.Bool("compare", false, "compare two records: -compare base.json head.json")
	pinMode := fs.Bool("pin", false, "regenerate "+pinsFile)
	fs.Parse(os.Args[1:])
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace is 0 or 1")
		os.Exit(2)
	}
	o.trace = traceFlag == 1

	var err error
	switch {
	case *pinMode:
		err = writePins()
	case *compare:
		if fs.NArg() != 2 {
			err = fmt.Errorf("-compare takes two record files")
			break
		}
		var worse bool
		if worse, err = compareRecords(os.Stdout, fs.Arg(0), fs.Arg(1)); err == nil && worse {
			os.Exit(1)
		}
	case *record != "":
		err = recordAll(*record, *reps, o)
	case o.workload != "":
		err = runOnce(o)
	default:
		err = fmt.Errorf("give -workload, -record, -compare or -pin")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOnce runs one workload and prints its result as the last line.
func runOnce(o runOptions) error {
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	fmt.Println(hostRecord())
	var r *result
	var err error
	if o.trace {
		r, err = traced(o)
	} else {
		r, err = measure(o)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
