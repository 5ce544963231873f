package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rbay/internal/chaos"
	"rbay/internal/store"
)

// runChaos runs a seeded fault-injection campaign. Everything printed is a
// pure function of the flags, so two invocations with the same arguments
// produce byte-identical output — the property that makes "rerun with the
// printed seed" an exact reproduction.
func runChaos(args []string) error {
	fs := flag.NewFlagSet("rbaysim chaos", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "campaign seed; every decision in the run derives from it")
	steps := fs.Int("steps", 40, "number of scheduled fault steps")
	sitesFlag := fs.String("sites", "virginia,tokyo", "comma-separated site names")
	nodesPerSite := fs.Int("nodes-per-site", 20, "agents per site")
	settle := fs.Duration("settle", 45*time.Second, "fault-free virtual time before the quiescent checks")
	plant := fs.Int("plant", 0, "1-based step index after which to covertly kill a node (validates the checkers; 0 = off)")
	dumpMetrics := fs.Bool("metrics", false, "print the merged per-node metric snapshot (counters + latency/count histograms) after the run")
	verbose := fs.Bool("v", false, "stream the event log while running (also printed at the end)")
	durable := fs.Bool("durable", false, "back every node with a crash-consistent virtual disk; restarts recover by WAL replay + re-federation and the durability invariant is armed")
	fsyncFlag := fs.String("fsync", "always", "durable nodes' fsync policy: always, interval, or never")
	fsyncInterval := fs.Duration("fsync-interval", 2*time.Second, "fsync period under -fsync interval")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fsync, err := store.ParseSyncPolicy(*fsyncFlag)
	if err != nil {
		return err
	}

	var sites []string
	for _, s := range strings.Split(*sitesFlag, ",") {
		if s = strings.TrimSpace(s); s != "" {
			sites = append(sites, s)
		}
	}
	if len(sites) == 0 {
		return fmt.Errorf("chaos: no sites")
	}

	scn := chaos.RandomScenario(*seed, *steps, sites)
	scn.Settle = *settle
	opts := chaos.Options{
		Sites:         sites,
		NodesPerSite:  *nodesPerSite,
		Churn:         true,
		Passwords:     true,
		PlantStep:     *plant,
		Durable:       *durable,
		Fsync:         fsync,
		FsyncInterval: *fsyncInterval,
	}
	if *verbose {
		opts.Log = os.Stderr
	}

	res, err := chaos.Run(scn, opts)
	if err != nil {
		return err
	}

	fmt.Printf("chaos campaign %s: seed=%d steps=%d sites=%s nodes-per-site=%d\n",
		scn.Name, *seed, *steps, strings.Join(sites, ","), *nodesPerSite)
	for _, line := range res.Log {
		fmt.Println(line)
	}
	fmt.Println()
	fmt.Print(res.Counters.Snapshot().CounterTable())
	if *dumpMetrics {
		fmt.Println()
		fmt.Print(res.Metrics.Summary())
	}

	if res.Failed() {
		fmt.Println()
		for _, v := range res.Violations {
			fmt.Println("VIOLATION:", v.String())
		}
		repro := fmt.Sprintf("go run ./cmd/rbaysim chaos -seed %d -steps %d -sites %s -nodes-per-site %d -settle %v",
			*seed, *steps, strings.Join(sites, ","), *nodesPerSite, *settle)
		if *plant > 0 {
			repro += fmt.Sprintf(" -plant %d", *plant)
		}
		if *durable {
			repro += fmt.Sprintf(" -durable -fsync %v", fsync)
		}
		fmt.Printf("\nreproduce with: %s\n", repro)
		os.Exit(1)
	}
	fmt.Println("\nall invariants held")
	return nil
}
