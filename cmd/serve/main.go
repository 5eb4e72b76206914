// Command serve runs the cluster-assignment server: it obtains a model —
// by loading a snapshot, training on a text dataset, or training on a
// synthetic mixture — and serves nearest-center queries over HTTP.
//
// Load a snapshot and serve:
//
//	serve -model model.gmm -addr :8080
//
// Train on a dataset file (CSV/TSV or space-separated, one point per
// line; dimensionality is inferred), save the snapshot, serve:
//
//	serve -data points.txt -save model.gmm -addr :8080
//	serve -data points.txt -timeout 5m -save model.gmm
//
// Train on a synthetic mixture and serve (demo mode):
//
//	serve -train -k 16 -dim 10 -n 20000 -save model.gmm
//
// While running, overwrite the snapshot with a newer model and POST
// /v1/model/reload to hot-swap it with zero downtime:
//
//	curl -XPOST localhost:8080/v1/model/reload
//	curl -XPOST localhost:8080/v1/assign -d '{"point":[1.5,2.5]}'
//
// A request's shape picks how it is answered: /v1/assign/batch runs the
// columnar batch kernel, /v1/assign the scalar scan (see the serving
// notes in ARCHITECTURE.md). Nothing about the serving path is tunable
// beyond the reload source.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	gmeansmr "gmeansmr"
	"gmeansmr/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("serve: ")

	var (
		addr      = flag.String("addr", ":8080", "HTTP listen address")
		modelPath = flag.String("model", "", "load this model snapshot and serve it")
		dataPath  = flag.String("data", "", "train on this text dataset (CSV/TSV or space-separated, one point per line)")
		dim       = flag.Int("dim", 0, "synthetic mixture dimensionality (-data infers it from the file)")
		train     = flag.Bool("train", false, "train on a synthetic mixture")
		k         = flag.Int("k", 8, "synthetic mixture: true cluster count")
		n         = flag.Int("n", 20_000, "synthetic mixture: point count")
		sep       = flag.Float64("sep", 10, "synthetic mixture: minimum center separation")
		seed      = flag.Int64("seed", 1, "random seed for training")
		alpha     = flag.Float64("alpha", 0, "Anderson-Darling significance level (0 = paper default)")
		maxK      = flag.Int("maxk", 0, "stop splitting at this many centers (0 = unlimited)")
		savePath  = flag.String("save", "", "write the trained model snapshot here")
		timeout   = flag.Duration("timeout", 0, "abort training after this long (0 = no limit)")
		debugAddr = flag.String("debug-addr", "", "serve /metrics and /debug/pprof on this address (e.g. :6060)")
	)
	flag.Parse()

	m, reloadPath, err := obtainModel(*modelPath, *dataPath, *dim, *train,
		*k, *n, *sep, *seed, *alpha, *maxK, *savePath, *timeout)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("model ready: k=%d dim=%d (algorithm=%q iterations=%d)",
		m.K, m.Dim, m.Meta.Algorithm, m.Meta.Iterations)

	var opts gmeansmr.ServerOptions
	if reloadPath != "" {
		opts.Loader = func() (*gmeansmr.Model, error) { return loadSnapshot(reloadPath) }
		log.Printf("hot reload enabled from %s (POST /v1/model/reload)", reloadPath)
	}
	srv, err := gmeansmr.NewServer(m, opts)
	if err != nil {
		log.Fatal(err)
	}
	if *debugAddr != "" {
		// The debug listener exposes the server's own metrics registry
		// (assign latencies, in-flight gauge, swap counter) plus pprof,
		// kept off the serving address so it can stay firewalled.
		go func() {
			log.Printf("debug endpoints on %s (/metrics, /debug/pprof/)", *debugAddr)
			log.Fatal(http.ListenAndServe(*debugAddr, obs.DebugMux(srv.Metrics())))
		}()
	}
	log.Printf("listening on %s", *addr)
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	log.Fatal(hs.ListenAndServe())
}

// obtainModel resolves the three model sources in precedence order and
// returns the model plus the snapshot path reloads should re-read.
func obtainModel(modelPath, dataPath string, dim int, train bool,
	k, n int, sep float64, seed int64, alpha float64, maxK int,
	savePath string, timeout time.Duration) (*gmeansmr.Model, string, error) {

	switch {
	case modelPath != "":
		m, err := loadSnapshot(modelPath)
		return m, modelPath, err

	case dataPath != "":
		// Materialize applies the run's validation (consistent dims, no
		// NaN/±Inf) and the points are needed afterwards to build the
		// serving model's per-cluster statistics.
		points, err := gmeansmr.Materialize(gmeansmr.FromFile(dataPath))
		if err != nil {
			return nil, "", fmt.Errorf("%s: %w", dataPath, err)
		}
		m, err := trainModel(points, seed, alpha, maxK, savePath, timeout)
		return m, savePath, err

	case train:
		if dim == 0 {
			dim = 2
		}
		ds, err := gmeansmr.GenerateDataset(gmeansmr.DatasetSpec{
			K: k, Dim: dim, N: n, MinSeparation: sep, Seed: seed,
		})
		if err != nil {
			return nil, "", err
		}
		m, err := trainModel(ds.Points, seed, alpha, maxK, savePath, timeout)
		return m, savePath, err

	default:
		return nil, "", fmt.Errorf("need a model source: -model, -data or -train (see -h)")
	}
}

func trainModel(points []gmeansmr.Point, seed int64, alpha float64, maxK int,
	savePath string, timeout time.Duration) (*gmeansmr.Model, error) {

	opts := []gmeansmr.Option{gmeansmr.WithSeed(seed)}
	if alpha > 0 {
		opts = append(opts, gmeansmr.WithAlpha(alpha))
	}
	if maxK > 0 {
		opts = append(opts, gmeansmr.WithMaxK(maxK))
	}
	c, err := gmeansmr.New(opts...)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	log.Printf("training on %d points...", len(points))
	res, err := c.Run(ctx, gmeansmr.FromPoints(points))
	if err != nil {
		return nil, err
	}
	log.Printf("trained: k=%d in %d iterations", res.K, res.Iterations)
	m, err := gmeansmr.BuildModel(res, points)
	if err != nil {
		return nil, err
	}
	if savePath != "" {
		if err := saveSnapshot(m, savePath); err != nil {
			return nil, err
		}
		log.Printf("snapshot written to %s", savePath)
	}
	return m, nil
}

func loadSnapshot(path string) (*gmeansmr.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return gmeansmr.LoadModel(bufio.NewReader(f))
}

func saveSnapshot(m *gmeansmr.Model, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := gmeansmr.SaveModel(m, w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
