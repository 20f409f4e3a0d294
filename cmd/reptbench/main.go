// Command reptbench regenerates the REPT paper's evaluation tables and
// figures on synthetic dataset analogs (the internal/exper package
// documentation indexes the experiments and explains the analogs).
//
// Usage:
//
//	reptbench -exp all -profile quick
//	reptbench -exp fig3 -profile default -csv results/
//	reptbench -list
//
// Experiments: table2 fig1 fig3 fig4 fig5 fig6 fig7 fig8 variance
// ablation-combine ablation-hash, or "all".
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"rept/internal/exper"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "reptbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("reptbench", flag.ContinueOnError)
	var (
		exp     = fs.String("exp", "all", "experiment id or \"all\"")
		profile = fs.String("profile", "default", "profile: quick|default|full")
		seed    = fs.Int64("seed", 1, "master seed")
		csvDir  = fs.String("csv", "", "also write CSVs to this directory")
		list    = fs.Bool("list", false, "list experiments and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Fprintln(out, "experiments:")
		for _, id := range exper.ExperimentIDs {
			fmt.Fprintln(out, "  "+id)
		}
		return nil
	}
	p, err := exper.ProfileByName(*profile)
	if err != nil {
		return err
	}
	return exper.Run(*exp, p, *seed, out, *csvDir)
}
