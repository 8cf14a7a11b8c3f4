package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/store"
)

// Request mix of serve-mix.
const (
	coldOneIn = 16 // about one request in coldOneIn is cold
	clients   = 2  // closed-loop clients, one per core of the 2-CPU reference host
)

var (
	poolWorkloads = []string{"jpeg1-only", "mpeg2", "2jpeg+canny"}
	coldWorkloads = []string{"jpeg1-only", "mpeg2"}
)

// servePool is serve-mix's warm pool: small-scale studies of three
// workloads at seeds S, S+1, S+2.
func servePool(seed uint64) []scenario.Scenario {
	var pool []scenario.Scenario
	for i := uint64(0); i < 3; i++ {
		for _, w := range poolWorkloads {
			pool = append(pool, scenario.Scenario{Workload: w, Scale: "small", Seed: seed + i})
		}
	}
	return pool
}

// restartPool is restart-warm's pool: every partition policy over
// small-scale inputs of three workloads at seeds S and S+1.
func restartPool(seed uint64) []scenario.Scenario {
	var pool []scenario.Scenario
	for i := uint64(0); i < 2; i++ {
		for _, w := range poolWorkloads {
			for _, p := range []string{scenario.PartitionOptimized, scenario.PartitionShared, scenario.PartitionOptimize, scenario.PartitionProfile} {
				pool = append(pool, scenario.Scenario{Workload: w, Scale: "small", Seed: seed + i, Partition: p})
			}
		}
	}
	return pool
}

// splitmix64 is the benchmark's deterministic generator step.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// request is one serve-mix request: a pool index, or -1 for a cold spec.
type request struct {
	pool int
	spec scenario.Scenario
}

// sequence generates one client's requests. The same benchmark seed and
// client give the same sequence.
type sequence struct{ state uint64 }

func newSequence(seed uint64, client int) *sequence {
	return &sequence{state: splitmix64(seed) ^ splitmix64(uint64(client)+0x5eed)}
}

func (s *sequence) rand() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return splitmix64(s.state)
}

// next draws the next request. A cold request's seed has its top bit
// set, so it never collides with a pool seed, and draws 63 random bits,
// so it is new within any run.
func (s *sequence) next(pool []scenario.Scenario) request {
	x := s.rand()
	if x%coldOneIn == 0 {
		w := coldWorkloads[(x>>8)%uint64(len(coldWorkloads))]
		return request{pool: -1, spec: scenario.Scenario{Workload: w, Scale: "small", Seed: 1<<63 | s.rand()>>1}}
	}
	i := int((x >> 8) % uint64(len(pool)))
	return request{pool: i, spec: pool[i]}
}

// batchBody is the /v1/batch document for one spec.
func batchBody(s scenario.Scenario) []byte {
	b, err := json.Marshal(map[string][]scenario.Scenario{"scenarios": {s}})
	if err != nil {
		panic(fmt.Sprintf("perfbench: encoding a spec: %v", err)) // a bug: specs always encode
	}
	return b
}

// envelope is the wire shape of one NDJSON line.
type envelope struct {
	Kind    string          `json:"kind"`
	Payload json.RawMessage `json:"payload"`
}

// parseBatch checks a single-spec /v1/batch response body: one
// scenario.result envelope, then a complete stream.end. It returns the
// result payload exactly as the server encoded it.
func parseBatch(body []byte) ([]byte, error) {
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if len(lines) != 2 {
		return nil, fmt.Errorf("response has %d NDJSON lines, want 2", len(lines))
	}
	var res, end envelope
	if err := json.Unmarshal(lines[0], &res); err != nil {
		return nil, fmt.Errorf("decoding result envelope: %w", err)
	}
	if err := json.Unmarshal(lines[1], &end); err != nil {
		return nil, fmt.Errorf("decoding end envelope: %w", err)
	}
	if res.Kind != scenario.ResultKind {
		return nil, fmt.Errorf("first envelope is %q, want %q", res.Kind, scenario.ResultKind)
	}
	if end.Kind != serve.StreamEndKind {
		return nil, fmt.Errorf("missing %s envelope (last is %q)", serve.StreamEndKind, end.Kind)
	}
	var se serve.StreamEnd
	if err := json.Unmarshal(end.Payload, &se); err != nil {
		return nil, fmt.Errorf("decoding stream end: %w", err)
	}
	if se.Reason != "complete" || se.Delivered != 1 {
		return nil, fmt.Errorf("stream ended %q after %d results", se.Reason, se.Delivered)
	}
	return res.Payload, nil
}

// swapHandler forwards to the current server, so one loopback listener
// serves a server reopened over the same store.
type swapHandler struct{ cur atomic.Pointer[serve.Server] }

func (h *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.cur.Load().ServeHTTP(w, r) }

// loopback is the in-process HTTP front the serving workloads drive.
type loopback struct {
	h      swapHandler
	hs     *httptest.Server
	client *http.Client
}

func newLoopback() *loopback {
	l := &loopback{}
	l.hs = httptest.NewServer(&l.h)
	l.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients, DisableCompression: true}}
	return l
}

func (l *loopback) close() {
	l.client.CloseIdleConnections()
	l.hs.Close()
}

// post sends one single-spec batch and returns the result payload. The
// returned duration runs from sending the request to reading the
// stream's last byte; a refusal (429, 5xx) or a malformed stream is an
// error.
func (l *loopback) post(body []byte) ([]byte, time.Duration, error) {
	t0 := time.Now()
	resp, err := l.client.Post(l.hs.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, time.Since(t0), err
	}
	raw, err := io.ReadAll(resp.Body)
	d := time.Since(t0)
	resp.Body.Close()
	if err != nil {
		return nil, d, fmt.Errorf("reading response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, d, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	payload, err := parseBatch(raw)
	return payload, d, err
}

// shed reads the server's shed counter from /healthz.
func (l *loopback) shed() (uint64, error) {
	resp, err := l.client.Get(l.hs.URL + "/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var env struct {
		Payload serve.Health `json:"payload"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return 0, fmt.Errorf("decoding /healthz: %w", err)
	}
	return env.Payload.Shed, nil
}

// stack is one opened store → runner → server chain.
type stack struct {
	dir string
	rn  *scenario.Runner
	srv *serve.Server
}

// openStack opens the disk store at dir and builds a runner and server
// over it, the way `compmem serve -store-dir` does.
func (b *bench) openStack(op, parent int64, dir string, workers int) (*stack, error) {
	var ds *store.Disk
	if _, err := b.rec.call(op, parent, "store", "store.OpenDisk", func() (err error) {
		ds, err = store.OpenDisk(dir)
		return err
	}); err != nil {
		return nil, err
	}
	s := &stack{dir: dir}
	b.rec.call(op, parent, "scenario", "scenario.NewRunnerWithStore", func() error {
		s.rn = scenario.NewRunnerWithStore(workers, store.NewResilient(ds, store.ResilientOptions{}))
		return nil
	})
	b.rec.call(op, parent, "serve", "serve.New", func() error {
		s.srv = serve.New(experiments.Default(), s.rn)
		return nil
	})
	return s, nil
}

// references computes every pool spec's result digest on a fresh
// memory-only runner: the oracle the served results must match.
func references(pool []scenario.Scenario) ([]string, error) {
	rn := scenario.NewRunner(0)
	refs := make([]string, len(pool))
	for i, s := range pool {
		r, err := rn.Run(s)
		if err != nil {
			return nil, err
		}
		refs[i] = digestJSON(r)
	}
	return refs, nil
}

// sample is one timed request.
type sample struct {
	ms   float64 // +Inf when the request failed
	cold bool
}

// coldResult is a served cold result, kept for the oracle check.
type coldResult struct {
	spec   scenario.Scenario
	digest string
}

// checkCold verifies a cold result: its key is the spec's content
// address, and the study is internally consistent.
func checkCold(spec scenario.Scenario, payload []byte) error {
	var r scenario.Result
	if err := json.Unmarshal(payload, &r); err != nil {
		return fmt.Errorf("decoding result: %w", err)
	}
	key, err := spec.Key()
	if err != nil {
		return err
	}
	if r.Key != key {
		return fmt.Errorf("result key %s, want %s", r.Key, key)
	}
	return checkStudy(&r)
}

// mixClient runs one closed-loop client until stop says so.
func (b *bench) mixClient(l *loopback, seq *sequence, pool []scenario.Scenario, refs []string,
	stop func() bool, warm, cold *atomic.Int64) (samples []sample, colds []coldResult, failed int, problems []string) {
	for !stop() {
		req := seq.next(pool)
		payload, d, err := l.post(batchBody(req.spec))
		if err == nil {
			if req.pool >= 0 {
				if got := digestBytes(payload); got != refs[req.pool] {
					err = fmt.Errorf("pool spec %d: digest %s, want %s", req.pool, got, refs[req.pool])
				}
			} else if err = checkCold(req.spec, payload); err == nil {
				colds = append(colds, coldResult{req.spec, digestBytes(payload)})
			}
		}
		s := sample{ms: ms(d), cold: req.pool < 0}
		if err != nil {
			s.ms = math.Inf(1)
			failed++
			if len(problems) < 5 {
				problems = append(problems, err.Error())
			}
		}
		samples = append(samples, s)
		if s.cold {
			cold.Add(1)
		} else {
			warm.Add(1)
		}
	}
	return samples, colds, failed, problems
}

// mixWindow runs the clients concurrently until stop holds for both.
func (b *bench) mixWindow(l *loopback, seqs []*sequence, pool []scenario.Scenario, refs []string,
	stop func(warm, cold int64) bool) ([]sample, []coldResult, time.Duration) {
	var warm, cold atomic.Int64
	var mu sync.Mutex
	var all []sample
	var colds []coldResult
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, seq := range seqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, c, failed, problems := b.mixClient(l, seq, pool, refs, func() bool { return stop(warm.Load(), cold.Load()) }, &warm, &cold)
			mu.Lock()
			all, colds = append(all, s...), append(colds, c...)
			b.attempted += len(s)
			b.failed += failed
			for _, p := range problems {
				b.problem("serve: %s", p)
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all, colds, time.Since(t0)
}

// verifyColds recomputes a spread sample of cold results on a fresh
// runner and compares digests.
func (b *bench) verifyColds(colds []coldResult) {
	const checks = 6
	rn := scenario.NewRunner(0)
	for k := 0; k < checks && k < len(colds); k++ {
		c := colds[k*len(colds)/min(checks, len(colds))]
		r, err := rn.Run(c.spec)
		if err != nil || digestJSON(r) != c.digest {
			b.problem("cold %s seed %d: served digest %s does not match a fresh run (%v)", c.spec.Workload, c.spec.Seed, c.digest, err)
			b.failed++
		}
	}
}

func split(samples []sample) (warm, cold []float64) {
	for _, s := range samples {
		if s.cold {
			cold = append(cold, s.ms)
		} else {
			warm = append(warm, s.ms)
		}
	}
	return warm, cold
}

func runServeMix(b *bench) error {
	pool := servePool(b.seed)
	refs, err := references(pool)
	if err != nil {
		return err
	}
	b.checkDigest("serve-mix.pool", digestJSON(refs), "", b.seed == defaultSeed)
	l := newLoopback()
	defer l.close()
	var st *stack
	teardown, err := b.setup(func() (func(), error) {
		dir, err := os.MkdirTemp(b.dir, "serve-")
		if err != nil {
			return nil, err
		}
		if st, err = b.openStack(0, 0, dir, 1); err != nil {
			return nil, err
		}
		l.h.cur.Store(st.srv)
		for i, s := range pool {
			payload, _, err := l.post(batchBody(s))
			if err != nil {
				return nil, fmt.Errorf("priming pool spec %d: %w", i, err)
			}
			if got := digestBytes(payload); got != refs[i] {
				return nil, fmt.Errorf("priming pool spec %d: digest %s, want %s", i, got, refs[i])
			}
		}
		s := st
		return func() { s.rn.Close(); os.RemoveAll(s.dir) }, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	seqs := []*sequence{newSequence(b.seed, 0), newSequence(b.seed, 1)}
	if b.rec != nil {
		delete(b.metrics, "setup_s")
		return b.serveTraced(l, st, pool, refs, seqs)
	}

	// An operation is one request, warm or cold. The warm and cold
	// percentiles and the request rate are reported on the meta line.
	needWarm, needCold := int64(samplesFor(99)), int64(samplesFor(90))
	mark := readMem()
	start := time.Now()
	samples, colds, wall := b.mixWindow(l, seqs, pool, refs, func(warm, cold int64) bool {
		el := time.Since(start)
		return el >= 3*b.seconds || el >= b.seconds && warm >= needWarm && cold >= needCold
	})
	b.put("alloc_mb_per_op", "MB", float64(readMem().alloc-mark.alloc)/1e6/float64(len(samples)))
	b.verifyColds(colds)
	warm, cold := split(samples)
	all := append(append([]float64(nil), warm...), cold...)
	if err := b.pct("op_p50_ms", all, 50); err != nil {
		return err
	}
	for _, p := range []struct {
		name string
		xs   []float64
		p    int
	}{{"warm_p50_ms", warm, 50}, {"warm_p99_ms", warm, 99}, {"cold_p50_ms", cold, 50}, {"cold_p90_ms", cold, 90}} {
		if err := b.pctDetail(p.name, p.xs, p.p); err != nil {
			return err
		}
	}
	ok := 0
	for _, s := range samples {
		if !math.IsInf(s.ms, 1) {
			ok++
		}
	}
	b.detail("serve_rps", "req/s", float64(ok)/wall.Seconds())
	return nil
}

// serveOpsTraced is the fixed length of each traced client sequence, so
// two traced runs make identical counts.
const serveOpsTraced = 300

func (b *bench) serveTraced(l *loopback, st *stack, pool []scenario.Scenario, refs []string, seqs []*sequence) error {
	rec := b.rec
	b.rec = nil
	start := time.Now()
	plainSamples, _, _ := b.mixWindow(l, seqs, pool, refs, func(_, _ int64) bool { return time.Since(start) >= b.seconds/2 })
	b.rec = rec

	// The traced phase: fixed sequences of their own, one op per request.
	before := st.rn.Stats()
	runtime0 := readMem()
	var mu sync.Mutex
	var traced []float64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		seq := newSequence(b.seed, clients+c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < serveOpsTraced; i++ {
				req := seq.next(pool)
				op, root := b.rec.op(layerOp, "request")
				var payload []byte
				var d time.Duration
				var err error
				b.rec.call(op, root, "serve", "POST /v1/batch", func() error {
					payload, d, err = l.post(batchBody(req.spec))
					return nil
				})
				b.rec.finish(root)
				if err == nil && req.pool >= 0 && digestBytes(payload) != refs[req.pool] {
					err = fmt.Errorf("pool spec %d: digest mismatch", req.pool)
				} else if err == nil && req.pool < 0 {
					err = checkCold(req.spec, payload)
				}
				mu.Lock()
				b.attempted++
				if err != nil {
					b.failed++
					b.problem("serve (traced): %v", err)
				}
				traced = append(traced, ms(d))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ops := clients * serveOpsTraced
	b.putStats(st.rn.Stats().Delta(before), ops)
	b.putMem(runtime0, ops)
	var plain []float64
	for _, s := range plainSamples {
		plain = append(plain, s.ms)
	}
	b.put("trace.overhead_ms", "ms", median(traced)-median(plain))

	// The layer walk repeats one cold request's pipeline: post it, so its
	// records are in the store, then walk its calls.
	var spec scenario.Scenario
	for seq := newSequence(b.seed, 2*clients); ; {
		if req := seq.next(pool); req.pool < 0 {
			spec = req.spec
			break
		}
	}
	payload, _, err := l.post(batchBody(spec))
	if err != nil {
		return err
	}
	want, err := scenario.NewRunner(1).Run(spec)
	if err != nil {
		return err
	}
	if digestJSON(want) != digestBytes(payload) {
		return fmt.Errorf("cold %s seed %d: served result differs from a fresh run", spec.Workload, spec.Seed)
	}
	n, err := spec.Normalize()
	if err != nil {
		return err
	}
	if err := b.walk(walkInput{spec: n, want: want, workers: 1, store: st.dir}); err != nil {
		return err
	}
	b.putSpans()
	return nil
}

// serveCalls reports serve.handler_us (ServeHTTP into a recorder) and
// serve.roundtrip_us (the same request over loopback) for a warm spec.
func (b *bench) serveCalls(l *loopback, st *stack, spec scenario.Scenario, ref string) error {
	body := batchBody(spec)
	var w *httptest.ResponseRecorder
	d, err := b.repeat("serve", "Server.ServeHTTP", func() error {
		w = httptest.NewRecorder()
		st.srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
		return nil
	})
	if err != nil {
		return err
	}
	payload, err := parseBatch(w.Body.Bytes())
	if err == nil && digestBytes(payload) != ref {
		err = fmt.Errorf("digest mismatch")
	}
	if err != nil {
		return fmt.Errorf("serve handler: %w", err)
	}
	b.put("serve.handler_us", "us", us(d))

	d, err = b.repeat("serve", "POST /v1/batch", func() (err error) {
		payload, _, err = l.post(body)
		return err
	})
	if err == nil && digestBytes(payload) != ref {
		err = fmt.Errorf("digest mismatch")
	}
	if err != nil {
		return fmt.Errorf("serve roundtrip: %w", err)
	}
	b.put("serve.roundtrip_us", "us", us(d))
	return nil
}

// memMark is a runtime allocation snapshot.
type memMark struct {
	alloc uint64
	gcs   uint32
}

func readMem() memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memMark{m.TotalAlloc, m.NumGC}
}

// putMem reports allocation and GC cycles since mark, per operation.
func (b *bench) putMem(mark memMark, ops int) {
	now := readMem()
	b.put("runtime.alloc_mb", "MB", float64(now.alloc-mark.alloc)/1e6/float64(ops))
	b.put("runtime.gc_cycles", "count", float64(now.gcs-mark.gcs)/float64(ops))
}
