// Command gmeans clusters a text dataset (one point per line, CSV/TSV or
// space-separated) and determines k, printing the discovered centers along
// with the engine's cost accounting. The algorithm is selectable: the
// paper's MR G-means (default), the original sequential G-means, X-means,
// or the multi-k-means baseline.
//
// Usage:
//
//	datagen -k 100 -dim 10 -n 100000 -sep 8 -o d100.txt
//	gmeans -nodes 4 -v d100.txt
//	gmeans -algo seq-gmeans d100.txt
//	gmeans -timeout 30s d100.txt   # bound the run; cancels between MR waves
//
// Multi-k-means maintains center sets for every candidate k in
// -kmin..-kmax (step -kstep) through -iters chained MapReduce jobs, then
// picks k by -criterion (elbow, jump, silhouette or bic) and prints the
// WCSS of every candidate:
//
//	gmeans -algo multik -kmax 20 -criterion bic d100.txt
//
// Execution backend: -backend=local (default) runs MapReduce tasks on
// in-process goroutine pools; -backend=proc spawns one worker process per
// simulated node and schedules tasks over HTTP (internal/mrdist), with
// straggler speculation and retry around worker failure. Results are
// bit-identical across backends:
//
//	gmeans -backend proc -nodes 4 d100.txt
//
// Observability: -trace writes a Chrome-trace file of the run's phase and
// task spans (open it at chrome://tracing or https://ui.perfetto.dev), and
// -debug-addr serves live /metrics and /debug/pprof while the run is hot:
//
//	gmeans -trace trace.json -debug-addr :6060 d100.txt
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"sort"
	"time"

	gmeansmr "gmeansmr"
	"gmeansmr/internal/dataset"
	"gmeansmr/internal/mrdist"
	"gmeansmr/internal/obs"
)

func main() {
	// When the proc backend spawned this process as a worker, serve tasks
	// instead of parsing flags; never returns in that case.
	mrdist.MaybeWorker()
	log.SetFlags(0)
	log.SetPrefix("gmeans: ")

	var (
		algo     = flag.String("algo", "gmeans-mr", "algorithm: gmeans-mr, seq-gmeans, xmeans, multik")
		backend  = flag.String("backend", "local", "MR execution backend: local (in-process) or proc (worker subprocesses)")
		fallback = flag.Bool("fallback", false, "degrade to the local backend if the proc backend is unavailable")
		nodes    = flag.Int("nodes", 4, "simulated cluster nodes (MR algorithms)")
		alpha    = flag.Float64("alpha", 0.0001, "Anderson-Darling significance level")
		maxK     = flag.Int("maxk", 0, "stop splitting at this many centers (0 = unlimited)")
		maxIter  = flag.Int("maxiter", 30, "maximum G-means rounds")
		merge    = flag.Float64("merge", 0, "post-processing merge radius (0 = off, -1 = auto)")
		seed     = flag.Int64("seed", 1, "random seed")
		split    = flag.Int("split", 1<<20, "simulated DFS split size in bytes (0 = auto)")
		centers  = flag.String("centers", "", "optional file receiving the final centers")
		verbose  = flag.Bool("v", false, "stream per-round progress")
		timeout  = flag.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
		tracing  = flag.String("trace", "", "write a Chrome-trace file of the run's spans here")
		debug    = flag.String("debug-addr", "", "serve /metrics and /debug/pprof on this address (e.g. :6060)")

		kmin      = flag.Int("kmin", 1, "multik: smallest candidate k")
		kmax      = flag.Int("kmax", 16, "multik: largest candidate k")
		kstep     = flag.Int("kstep", 1, "multik: candidate step")
		iters     = flag.Int("iters", 10, "multik: k-means iterations")
		criterion = flag.String("criterion", "elbow", "multik: k-selection criterion: elbow, jump, silhouette, bic")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: gmeans [flags] <dataset.txt>")
		flag.PrintDefaults()
		os.Exit(2)
	}

	opts := []gmeansmr.Option{
		gmeansmr.WithAlgorithm(gmeansmr.Algorithm(*algo)),
		gmeansmr.WithBackend(gmeansmr.Backend(*backend)),
		gmeansmr.WithNodes(*nodes),
		gmeansmr.WithSeed(*seed),
		gmeansmr.WithSplitSize(*split),
		gmeansmr.WithKRange(*kmin, *kmax, *kstep),
		gmeansmr.WithMultiKIterations(*iters),
		gmeansmr.WithCriterion(gmeansmr.Criterion(*criterion)),
	}
	if *fallback {
		opts = append(opts, gmeansmr.WithBackendFallback())
	}
	if *alpha > 0 {
		opts = append(opts, gmeansmr.WithAlpha(*alpha))
	}
	if *maxK > 0 {
		opts = append(opts, gmeansmr.WithMaxK(*maxK))
	}
	if *maxIter > 0 {
		opts = append(opts, gmeansmr.WithMaxIterations(*maxIter))
	}
	if *merge != 0 {
		r := *merge
		if r < 0 {
			r = gmeansmr.MergeAuto
		}
		opts = append(opts, gmeansmr.WithMergeRadius(r))
	}
	if *verbose {
		opts = append(opts, gmeansmr.WithProgress(func(p gmeansmr.Progress) {
			fmt.Printf("  round %2d  strategy=%-16s k=%-4d active=%-4d  %s\n",
				p.Round, p.Strategy, p.K, p.Active, p.Duration.Round(time.Millisecond))
		}))
	}
	var traceFile *os.File
	var traceBuf *bufio.Writer
	if *tracing != "" {
		f, err := os.Create(*tracing)
		if err != nil {
			log.Fatal(err)
		}
		traceFile, traceBuf = f, bufio.NewWriter(f)
		opts = append(opts, gmeansmr.WithTrace(traceBuf))
	}
	if *debug != "" {
		reg := gmeansmr.NewRegistry()
		opts = append(opts, gmeansmr.WithObserver(reg))
		go func() {
			log.Printf("debug endpoints on %s (/metrics, /debug/pprof/)", *debug)
			log.Fatal(http.ListenAndServe(*debug, obs.DebugMux(reg)))
		}()
	}

	c, err := gmeansmr.New(opts...)
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	start := time.Now()
	res, err := c.Run(ctx, gmeansmr.FromFile(flag.Arg(0)))
	if traceFile != nil {
		// Run wrote the trace into the buffer even if it failed partway.
		if ferr := traceBuf.Flush(); ferr != nil {
			log.Printf("flushing trace: %v", ferr)
		}
		if cerr := traceFile.Close(); cerr != nil {
			log.Printf("closing trace: %v", cerr)
		} else if err == nil {
			fmt.Printf("trace written to %s\n", *tracing)
		}
	}
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("algorithm    = %s\n", res.Algorithm)
	fmt.Printf("discovered k = %d\n", res.K)
	fmt.Printf("iterations   = %d\n", res.Iterations)
	fmt.Printf("wall time    = %s\n", time.Since(start).Round(time.Millisecond))
	// Only print the cost counters the algorithm actually measured — the
	// in-memory baselines have no DFS or shuffle to account for.
	printCounter := func(label, key string) {
		if v, ok := res.Counters[key]; ok {
			fmt.Printf("%-13s= %d\n", label, v)
		}
	}
	printCounter("dataset reads", gmeansmr.CounterDatasetReads)
	printCounter("distances", gmeansmr.CounterDistances)
	printCounter("AD tests", gmeansmr.CounterADTests)
	printCounter("shuffle bytes", gmeansmr.CounterShuffleBytes)

	if res.WCSSByK != nil {
		ks := make([]int, 0, len(res.WCSSByK))
		for k := range res.WCSSByK {
			ks = append(ks, k)
		}
		sort.Ints(ks)
		fmt.Printf("\nk selected by the %s criterion from:\n%-6s %-14s\n", *criterion, "k", "WCSS")
		for _, k := range ks {
			fmt.Printf("%-6d %-14.3f\n", k, res.WCSSByK[k])
		}
	}

	if *centers != "" {
		f, err := os.Create(*centers)
		if err != nil {
			log.Fatal(err)
		}
		for _, c := range res.Centers {
			fmt.Fprintln(f, dataset.FormatPoint(c))
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("centers written to %s\n", *centers)
	}
}
