// Command experiments regenerates the paper's tables and figures by
// id. Run with no arguments to list the available experiments.
package main

import (
	"flag"
	"fmt"
	"os"

	"slamshare/internal/exp"
)

func main() {
	quick := flag.Bool("quick", false, "run scaled-down experiments")
	full := flag.Bool("full", false, "run the most expensive variants (e.g. table1's 210-keyframe row)")
	flag.Parse()
	exp.Quick = *quick
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	ids := args
	if len(args) == 1 && args[0] == "all" {
		ids = exp.All()
	}
	for _, id := range ids {
		fmt.Printf("=== %s ===\n", id)
		if err := exp.Run(os.Stdout, id, *full); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: experiments [-quick] [-full] <id>... | all")
	fmt.Fprintln(os.Stderr, "experiments:")
	for _, id := range exp.All() {
		fmt.Fprintf(os.Stderr, "  %s\n", id)
	}
}
