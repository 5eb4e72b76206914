// Package gmeansmr is a Go reproduction of "Determining the k in k-means
// with MapReduce" (Debatty, Michiardi, Mees, Thonnard — EDBT/ICDT 2014):
// G-means on MapReduce, an algorithm that clusters a dataset *and*
// determines the number of clusters k with computation cost proportional
// to n·k, against the O(n·k²) of running k-means for every candidate k.
//
// The public API is a context-aware, algorithm-pluggable training engine:
// build a Clusterer with functional options, then Run it against a
// DataSource under a context that can cancel or deadline the run.
//
// # Quick start
//
//	c, _ := gmeansmr.New(gmeansmr.WithSeed(1))
//	src := gmeansmr.FromMixture(gmeansmr.DatasetSpec{K: 10, Dim: 2, N: 100_000})
//	res, _ := c.Run(context.Background(), src)
//	fmt.Println("discovered k =", res.K)
//
// Data can come from memory (FromPoints), from a CSV/TSV stream that is
// never materialized (FromReader, FromFile), or from a generated Gaussian
// mixture (FromMixture). The algorithm is pluggable: WithAlgorithm selects
// MR G-means (the paper's contribution, the default), the original
// sequential G-means, X-means, or multi-k-means with a k-selection
// criterion — the baselines the paper compares against — all behind the
// same Result shape. Long runs are observable and cancellable:
//
//	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
//	defer cancel()
//	c, _ := gmeansmr.New(
//	    gmeansmr.WithAlgorithm(gmeansmr.AlgorithmGMeansMR),
//	    gmeansmr.WithProgress(func(p gmeansmr.Progress) {
//	        log.Printf("round %d: k=%d strategy=%s", p.Round, p.K, p.Strategy)
//	    }),
//	)
//	res, err := c.Run(ctx, gmeansmr.FromFile("points.csv"))
//
// # Serving
//
// Training is a batch job; answering "which cluster does this point belong
// to?" is an online one. A finished run converts into a persistent,
// versioned model snapshot and a concurrent HTTP server (see cmd/serve for
// the standalone binary):
//
//	m, _ := gmeansmr.BuildModel(res, points)
//	f, _ := os.Create("model.gmm")
//	gmeansmr.SaveModel(m, f) // later: m, _ = gmeansmr.LoadModel(r)
//	f.Close()
//
//	srv, _ := gmeansmr.NewServer(m, gmeansmr.ServerOptions{})
//	a, _ := srv.Assign([]float64{1.5, 2.5}) // kd-tree nearest center
//	fmt.Println("cluster", a.Cluster, "at distance", a.Distance)
//	http.ListenAndServe(":8080", srv)       // POST /v1/assign, /v1/assign/batch, ...
//
// The server shares one immutable model snapshot across all goroutines and
// hot-swaps it atomically (POST /v1/model/reload), so a newly trained model
// replaces the old one with zero downtime.
//
// For full control over the simulated cluster, file system and algorithm
// parameters, build a core.Config directly (see the cmd/ and examples/
// directories).
package gmeansmr

import (
	"fmt"
	"io"

	"gmeansmr/internal/dataset"
	"gmeansmr/internal/model"
	"gmeansmr/internal/obs"
	"gmeansmr/internal/serve"
)

// Registry is a dependency-free metrics registry (counters, gauges,
// fixed-bucket latency histograms with p50/p95/p99) that exports in
// Prometheus text format. Pass one to WithObserver to collect run metrics,
// and to a debug HTTP endpoint to expose them (see cmd/gmeans -debug-addr).
type Registry = obs.Registry

// NewRegistry returns an empty metrics registry for WithObserver.
func NewRegistry() *Registry { return obs.NewRegistry() }

// Point is a point in R^d.
type Point = []float64

// DatasetSpec describes a synthetic Gaussian-mixture dataset.
type DatasetSpec = dataset.Spec

// Dataset is a generated mixture with ground truth.
type Dataset = dataset.Dataset

// GenerateDataset materializes a synthetic Gaussian mixture. To stream a
// mixture into a run without materializing it, use FromMixture instead.
func GenerateDataset(spec DatasetSpec) (*Dataset, error) { return dataset.Generate(spec) }

// MergeAuto asks a run to derive the merge radius from the discovered
// centers (half the median nearest-neighbor distance).
const MergeAuto = -1.0

// Result is the outcome of a clustering run, with one shape across all
// selectable algorithms.
type Result struct {
	// Algorithm identifies which algorithm produced the result.
	Algorithm Algorithm
	// Centers are the discovered cluster centers; K = len(Centers).
	Centers []Point
	K       int
	// Iterations counts the algorithm's driver rounds: G-means rounds,
	// X-means improve-structure rounds, multi-k-means chained jobs, or
	// sequential G-means cluster tests.
	Iterations int
	// Assignment maps each input point to its center. It is nil when an MR
	// algorithm ran over a streaming source (computing it would need a
	// second pass over data that was never held in memory).
	Assignment []int
	// Counters exposes the run's cost accounting (distance computations,
	// shuffle bytes, Anderson–Darling tests, dataset reads, ...). The MR
	// algorithms report full engine counters; the in-memory algorithms
	// report their own coarse counts.
	Counters map[string]int64
	// WCSS is the within-cluster sum of squares, for the algorithms that
	// compute it (sequential G-means, X-means, multi-k-means).
	WCSS float64
	// WCSSByK maps every candidate k to its WCSS — AlgorithmMultiK only,
	// nil otherwise.
	WCSSByK map[int]float64
}

// Model is a trained clustering model: centers, per-cluster statistics and
// training provenance, with a versioned binary snapshot format.
type Model = model.Model

// ModelMeta is the training provenance carried inside a model snapshot.
type ModelMeta = model.Meta

// BuildModel converts a finished run into a persistent model, deriving
// per-cluster point counts and radii from the run's assignment. points
// must be the points the run was trained on (for a streaming source,
// Materialize them first and rerun, or build the model from a FromPoints
// run).
func BuildModel(res *Result, points []Point) (*Model, error) {
	if res == nil {
		return nil, fmt.Errorf("gmeansmr: nil result")
	}
	algorithm := string(res.Algorithm)
	if algorithm == "" {
		algorithm = string(AlgorithmGMeansMR)
	}
	return model.FromTraining(res.Centers, points, res.Assignment, ModelMeta{
		Algorithm:  algorithm,
		Iterations: res.Iterations,
		Counters:   res.Counters,
	})
}

// SaveModel writes a versioned, checksummed model snapshot to w. The
// encoding is deterministic and round-trip stable.
func SaveModel(m *Model, w io.Writer) error { return m.Save(w) }

// LoadModel reads a model snapshot written by SaveModel, verifying its
// magic, format version and checksum.
func LoadModel(r io.Reader) (*Model, error) { return model.Load(r) }

// Server is the cluster-assignment HTTP server: kd-tree-accelerated
// nearest-center queries over an immutable model snapshot that hot-swaps
// atomically. It implements http.Handler; see the package example and
// cmd/serve.
type Server = serve.Server

// ServerOptions configure NewServer; the zero value is serviceable.
type ServerOptions = serve.Options

// Assignment is one answered query: nearest center index plus Euclidean
// distance.
type Assignment = serve.Assignment

// NewServer builds an assignment server over m. The model is retained and
// must not be mutated afterwards.
func NewServer(m *Model, opts ServerOptions) (*Server, error) { return serve.New(m, opts) }
