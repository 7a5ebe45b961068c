// Command experiments regenerates the paper-reproduction experiment suite
// (E1–E12, one per quantitative claim of the paper; internal/experiments
// defines them).
//
// Usage:
//
//	experiments [-exp e1,e4] [-quick] [-seed 42] [-markdown]
//
// With no -exp flag every experiment runs. The output is the paper-claim /
// measured report, as plain text or (-markdown) one markdown section per
// experiment.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"qclique"
	"qclique/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		expList  = fs.String("exp", "", "comma-separated experiment ids (default: all); available: "+strings.Join(experiments.IDs(), ","))
		quick    = fs.Bool("quick", false, "smaller sweeps")
		seed     = fs.Uint64("seed", 42, "randomness seed")
		markdown = fs.Bool("markdown", false, "emit one markdown section per experiment (claim, measurement, table)")
		strategy = fs.String("strategy", "", "\"list\" enumerates every registered pipeline with its stretch guarantee (experiments otherwise pin their own strategies)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *strategy != "" {
		// The experiment suite pins strategies per experiment (each
		// reproduces a specific claim), so the flag exists to enumerate
		// the registry — the same source of truth cmd/apsp solves from.
		if *strategy != "list" {
			return fmt.Errorf("experiments pin their own strategies; -strategy only accepts \"list\" (got %q)", *strategy)
		}
		fmt.Print(qclique.FormatStrategyList())
		return nil
	}
	cfg := experiments.Config{Quick: *quick, Seed: *seed}

	ids := experiments.IDs()
	if *expList != "" {
		ids = strings.Split(*expList, ",")
	}
	pass := 0
	for _, id := range ids {
		res, err := experiments.Run(strings.TrimSpace(id), cfg)
		if err != nil {
			return err
		}
		if *markdown {
			fmt.Printf("## %s — %s\n\n**Paper claim.** %s\n\n**Measured.** %s\n\n```\n%s```\n\n", strings.ToUpper(res.ID), res.Title, res.PaperClaim, res.Summary, res.Output)
		} else {
			status := "PASS"
			if !res.OK {
				status = "CHECK"
			}
			fmt.Printf("=== %s [%s] %s\n", strings.ToUpper(res.ID), status, res.Title)
			fmt.Printf("paper:    %s\nmeasured: %s\n%s\n", res.PaperClaim, res.Summary, res.Output)
		}
		if res.OK {
			pass++
		}
	}
	fmt.Printf("%d/%d experiments consistent with the paper's claims\n", pass, len(ids))
	return nil
}
