// Command loadtest drives the assignment server's HTTP serving path and
// prints a QPS / latency table in markdown — the measurement behind the
// serving-performance table in the README.
//
// By default it self-hosts: it builds a synthetic model, starts the
// server in-process on a loopback port, and sweeps framing × batch size
// × client concurrency, measuring each cell with its own latency
// histogram (the same fixed-bucket estimator the server's /metrics
// exports, so numbers are comparable):
//
//	loadtest                          # default sweep, markdown to stdout
//	loadtest -k 64 -dim 32 -dur 5s    # bigger model, longer cells
//
// Point it at an already-running server to measure a real deployment
// (the model shape is discovered from one probe assignment):
//
//	loadtest -addr http://10.0.0.7:8080 -dim 16
//
// Batch size 1 posts to /v1/assign, which the server answers with the
// scalar scan; larger batches post to /v1/assign/batch and its columnar
// kernel. The self-hosted server runs with default options: the request
// shape alone picks the path, so there is nothing else to sweep.
//
// Each cell reports requests/s, points/s (the throughput number that
// matters for batches), and p50/p95/p99 request latency.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gmeansmr/internal/dfs"
	"gmeansmr/internal/model"
	"gmeansmr/internal/obs"
	"gmeansmr/internal/serve"
	"gmeansmr/internal/vec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadtest: ")

	var (
		addr    = flag.String("addr", "", "measure this running server instead of self-hosting (e.g. http://localhost:8080)")
		k       = flag.Int("k", 32, "self-hosted synthetic model: center count")
		dim     = flag.Int("dim", 16, "point dimensionality (self-hosted model shape; required to match -addr's model)")
		seed    = flag.Int64("seed", 1, "random seed for the model and query points")
		dur     = flag.Duration("dur", 2*time.Second, "measured duration per cell")
		warmup  = flag.Duration("warmup", 250*time.Millisecond, "unmeasured warmup per cell")
		concs   = flag.String("conc", "1,8,32", "comma-separated client concurrency levels")
		batches = flag.String("batch", "1,64,1024", "comma-separated batch sizes (1 = singleton /v1/assign)")
		modes   = flag.String("mode", "json,binary", "comma-separated framings to sweep: json, binary")
	)
	flag.Parse()

	concList, err := parseInts(*concs)
	if err != nil {
		log.Fatalf("-conc: %v", err)
	}
	batchList, err := parseInts(*batches)
	if err != nil {
		log.Fatalf("-batch: %v", err)
	}
	modeList := strings.Split(*modes, ",")
	for _, m := range modeList {
		if m != "json" && m != "binary" {
			log.Fatalf("-mode: unknown framing %q", m)
		}
	}

	base := *addr
	if base == "" {
		base, err = selfHost(*k, *dim, *seed)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("self-hosted server on %s (k=%d dim=%d)", base, *k, *dim)
	}
	base = strings.TrimSuffix(base, "/")

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        4 * maxInt(concList),
		MaxIdleConnsPerHost: 4 * maxInt(concList),
	}}
	if err := probe(client, base, *dim); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("| framing | batch | clients | req/s | points/s | p50 | p95 | p99 |\n")
	fmt.Printf("|---------|------:|--------:|------:|---------:|----:|----:|----:|\n")
	for _, mode := range modeList {
		for _, batch := range batchList {
			bodies := makeBodies(mode, batch, *dim, *seed)
			for _, conc := range concList {
				cell := runCell(client, base, mode, batch, conc, bodies, *warmup, *dur)
				fmt.Println(cell)
			}
		}
	}
}

// selfHost builds a synthetic model and serves it on a loopback port.
func selfHost(k, dim int, seed int64) (string, error) {
	rng := rand.New(rand.NewSource(seed))
	centers := make([]vec.Vector, k)
	for i := range centers {
		c := make(vec.Vector, dim)
		for j := range c {
			c[j] = rng.Float64() * 100
		}
		centers[i] = c
	}
	m, err := model.New(centers, model.Meta{Algorithm: "loadtest"})
	if err != nil {
		return "", err
	}
	srv, err := serve.New(m, serve.Options{})
	if err != nil {
		return "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	go func() {
		if err := (&http.Server{Handler: srv}).Serve(ln); err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()
	return "http://" + ln.Addr().String(), nil
}

// probe sends one assignment to fail fast on a wrong -addr or -dim
// before the sweep burns time producing a table of errors.
func probe(client *http.Client, base string, dim int) error {
	p := make([]float64, dim)
	body, _ := json.Marshal(map[string]any{"point": p})
	resp, err := client.Post(base+"/v1/assign", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("probe assignment failed (%s): %s — does -dim match the served model?",
			resp.Status, bytes.TrimSpace(msg))
	}
	return nil
}

// makeBodies pre-encodes a pool of distinct request bodies for one cell
// so the measurement loop does no encoding work. Queries are drawn from
// the same range the synthetic model's centers occupy.
func makeBodies(mode string, batch, dim int, seed int64) [][]byte {
	const pool = 64
	rng := rand.New(rand.NewSource(seed + int64(batch)))
	bodies := make([][]byte, pool)
	for i := range bodies {
		points := make([][]float64, batch)
		for j := range points {
			p := make([]float64, dim)
			for d := range p {
				p[d] = rng.Float64() * 100
			}
			points[j] = p
		}
		switch {
		case mode == "binary":
			b := dfs.BinaryHeader(dim)
			for _, p := range points {
				b = dfs.AppendBinaryPoint(b, p)
			}
			bodies[i] = b
		case batch == 1:
			bodies[i], _ = json.Marshal(map[string]any{"point": points[0]})
		default:
			bodies[i], _ = json.Marshal(map[string]any{"points": points})
		}
	}
	return bodies
}

// runCell hammers one (framing, batch, concurrency) cell and returns its
// markdown table row.
func runCell(client *http.Client, base, mode string, batch, conc int, bodies [][]byte, warmup, dur time.Duration) string {
	path := base + "/v1/assign/batch"
	contentType := "application/json"
	if batch == 1 {
		path = base + "/v1/assign"
	}
	if mode == "binary" {
		contentType = "application/octet-stream"
	}

	hist := obs.NewRegistry().Histogram("lat", nil)
	var requests, errs atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup

	deadline := time.After(warmup + dur)
	measuring := time.After(warmup)
	var recording atomic.Bool
	go func() {
		<-measuring
		recording.Store(true)
	}()

	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; !stop.Load(); i++ {
				body := bodies[i%len(bodies)]
				start := time.Now()
				resp, err := client.Post(path, contentType, bytes.NewReader(body))
				if err != nil {
					errs.Add(1)
					continue
				}
				_, cerr := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if cerr != nil || resp.StatusCode != http.StatusOK {
					errs.Add(1)
					continue
				}
				if recording.Load() {
					hist.Observe(time.Since(start).Seconds())
					requests.Add(1)
				}
			}
		}(w)
	}
	<-deadline
	stop.Store(true)
	wg.Wait()

	if e := errs.Load(); e > 0 {
		fmt.Fprintf(os.Stderr, "loadtest: %s batch=%d conc=%d: %d failed requests\n", mode, batch, conc, e)
	}
	secs := dur.Seconds()
	reqs := float64(requests.Load())
	return fmt.Sprintf("| %s | %d | %d | %.0f | %.0f | %s | %s | %s |",
		mode, batch, conc, reqs/secs, reqs*float64(batch)/secs,
		fmtLatency(hist.P50()), fmtLatency(hist.P95()), fmtLatency(hist.P99()))
}

// fmtLatency renders a latency in seconds at µs resolution.
func fmtLatency(sec float64) string {
	d := time.Duration(sec * float64(time.Second))
	return d.Round(time.Microsecond).String()
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad value %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

func maxInt(xs []int) int {
	m := 1
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
