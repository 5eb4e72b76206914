package gmeansmr_test

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	gmeansmr "gmeansmr"
)

// ExampleClusterer_Run trains on a streamed Gaussian mixture — never
// materialized in memory — under a cancellable context.
func ExampleClusterer_Run() {
	c, err := gmeansmr.New(gmeansmr.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	src := gmeansmr.FromMixture(gmeansmr.DatasetSpec{
		K: 3, Dim: 2, N: 3000, MinSeparation: 30, Seed: 1,
	})
	res, err := c.Run(context.Background(), src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("discovered k = %d\n", res.K)
	// Output: discovered k = 3
}

// ExampleNew_algorithms selects a baseline algorithm behind the same
// Result shape as the paper's MR G-means.
func ExampleNew_algorithms() {
	ds, err := gmeansmr.GenerateDataset(gmeansmr.DatasetSpec{
		K: 3, Dim: 2, N: 3000, MinSeparation: 30, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	c, err := gmeansmr.New(
		gmeansmr.WithAlgorithm(gmeansmr.AlgorithmSeqGMeans),
		gmeansmr.WithSeed(1),
	)
	if err != nil {
		log.Fatal(err)
	}
	res, err := c.Run(context.Background(), gmeansmr.FromPoints(ds.Points))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s discovered k = %d\n", res.Algorithm, res.K)
	// Output: seq-gmeans discovered k = 3
}

// ExampleFromFile clusters a point file from the local file system. The
// format — text records or the GMPB binary frame format (docs/formats.md)
// — is sniffed from the file's first bytes, so the same call serves both;
// dimensionality is inferred from the records.
func ExampleFromFile() {
	ds, err := gmeansmr.GenerateDataset(gmeansmr.DatasetSpec{
		K: 3, Dim: 2, N: 3000, MinSeparation: 30, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "gmeansmr-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "points.txt")
	var buf strings.Builder
	for _, p := range ds.Points {
		fmt.Fprintf(&buf, "%g %g\n", p[0], p[1])
	}
	if err := os.WriteFile(path, []byte(buf.String()), 0o644); err != nil {
		log.Fatal(err)
	}

	c, err := gmeansmr.New(gmeansmr.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	res, err := c.Run(context.Background(), gmeansmr.FromFile(path))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("discovered k = %d\n", res.K)
	// Output: discovered k = 3
}
