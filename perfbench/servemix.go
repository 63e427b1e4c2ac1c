package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"pbspgemm"
	"pbspgemm/internal/gen"
	"pbspgemm/internal/mmio"
	"pbspgemm/internal/serve"
)

// The serve-mix sizing. Factors are ER 2^11 with 8 nonzeros per column; a
// cold product of two is ~131 kflop with a ~4.6 MB predicted footprint,
// far under the ceiling. The wide base has 32 nonzeros per column: a
// product with it is ~0.5 Mflop whose ~19 MB footprint exceeds the 16 MiB
// ceiling, so the server re-plans it under the 1 MiB degraded budget
// (~13 MB) and runs the tiled panel/merge path instead of shedding.
const (
	serveClients        = 2
	serveDim            = 1 << 11
	serveEF             = 8
	serveWideEF         = 32
	serveBases          = 7
	serveCeiling        = 16 << 20
	serveDegradedBudget = 1 << 20
	// serveCacheBudget keeps the result cache small: hot products stay
	// resident (LRU), cold ones are evicted, and the process stays small
	// on a shared host.
	serveCacheBudget = 64 << 20
	// serveSamplesPerClient caps the binary responses kept for checking.
	serveSamplesPerClient = 16
)

// Request kinds of the mix, with how many of each a cycle of 100 holds. Hits repeat a
// product cached at set-up; cold arithmetic, Boolean and min-plus requests
// each pair the client's newest uploaded factor with a base matrix it has
// not been multiplied with yet, so they always miss the cache; degraded
// requests pair it with the wide base; uploads register a fresh factor.
type reqKind int

const (
	kindHit reqKind = iota
	kindCold
	kindBoolean
	kindMinPlus
	kindDegraded
	kindUpload
	numKinds
)

var kindNames = [numKinds]string{"hit", "cold", "boolean", "minplus", "degraded", "upload"}

var kindWeights = [numKinds]int{65, 17, 7, 7, 2, 2}

// combos is how many cold requests of each kind one fresh factor serves
// before the client must upload the next one.
var combos = [numKinds]int{kindCold: serveBases, kindBoolean: serveBases, kindMinPlus: serveBases, kindDegraded: 2}

// serveInputs are the generated matrices of one serve-mix run.
type serveInputs struct {
	bases []*pbspgemm.CSR
	wide  *pbspgemm.CSR
	// fresh[c] are client c's factors, uploaded one at a time during the
	// run, drawn from client c's seed stream freshRNG[c]; freshBin[c][i] is
	// fresh[c][i] in the binary upload framing. Each client touches only
	// its own slot.
	fresh    [][]*pbspgemm.CSR
	freshBin [][][]byte
	freshRNG []*gen.RNG
}

// serveMixInputs generates the base matrices and the first perClient
// fresh factors of each client.
func serveMixInputs(seed uint64, perClient int) (*serveInputs, error) {
	in := &serveInputs{
		bases:    make([]*pbspgemm.CSR, serveBases),
		fresh:    make([][]*pbspgemm.CSR, serveClients),
		freshBin: make([][][]byte, serveClients),
		freshRNG: make([]*gen.RNG, serveClients),
	}
	for i := range in.bases {
		in.bases[i] = pbspgemm.NewER(serveDim, serveEF, subSeed(seed, uint64(10+i)))
	}
	in.wide = pbspgemm.NewER(serveDim, serveWideEF, subSeed(seed, 20))
	for c := range in.fresh {
		in.freshRNG[c] = gen.NewRNG(subSeed(seed, uint64(30+c)))
		if _, _, err := in.freshFactor(c, perClient-1); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// freshFactor returns client c's fresh factor i, generating the factors up
// to it when a run outgrows the pre-generated ones.
func (in *serveInputs) freshFactor(c, i int) (*pbspgemm.CSR, []byte, error) {
	for len(in.fresh[c]) <= i {
		m := pbspgemm.NewER(serveDim, serveEF, in.freshRNG[c].Uint64())
		var buf bytes.Buffer
		if err := mmio.WriteBinary(&buf, m); err != nil {
			return nil, nil, err
		}
		in.fresh[c] = append(in.fresh[c], m)
		in.freshBin[c] = append(in.freshBin[c], buf.Bytes())
	}
	return in.fresh[c][i], in.freshBin[c][i], nil
}

// serveEnv is one in-process pbspgemmd on a loopback listener.
type serveEnv struct {
	eng    *pbspgemm.Engine
	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
}

// startServer serves cfg (with a fresh default Engine) on 127.0.0.1.
func startServer(cfg serve.Config, engOpts ...pbspgemm.Option) (*serveEnv, error) {
	eng, err := pbspgemm.NewEngine(engOpts...)
	if err != nil {
		return nil, err
	}
	cfg.Engine = eng
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &serveEnv{
		eng: eng, srv: srv, hs: &http.Server{Handler: srv}, served: make(chan error, 1),
		url: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients, DisableCompression: true,
		}},
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	return e, nil
}

// stop closes the listener and every connection and waits for Serve to
// return.
func (e *serveEnv) stop() {
	e.client.CloseIdleConnections()
	_ = e.hs.Close() // Close's error is the listener's, which is being discarded anyway
	<-e.served
}

// upload registers a binary-framed matrix and returns its id.
func (e *serveEnv) upload(ctx context.Context, body []byte) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.url+"/matrices", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("upload: %s", resp.Status)
	}
	var info serve.MatrixInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return "", fmt.Errorf("upload response: %w", err)
	}
	return info.ID, nil
}

func uploadMatrix(ctx context.Context, e *serveEnv, m *pbspgemm.CSR) (string, error) {
	var buf bytes.Buffer
	if err := mmio.WriteBinary(&buf, m); err != nil {
		return "", err
	}
	return e.upload(ctx, buf.Bytes())
}

// multiplyBody is the POST /multiply request.
type multiplyBody struct {
	A        string `json:"a"`
	B        string `json:"b"`
	Semiring string `json:"semiring,omitempty"`
	Output   string `json:"output,omitempty"`
}

// multiply posts one product request; keep asks for the response body
// back (for checking), otherwise it is read and discarded.
func (e *serveEnv) multiply(ctx context.Context, mb multiplyBody, keep bool) (body []byte, n int64, err error) {
	payload, err := json.Marshal(mb)
	if err != nil {
		return nil, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.url+"/multiply", bytes.NewReader(payload))
	if err != nil {
		return nil, 0, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if keep {
		body, err = io.ReadAll(resp.Body)
		n = int64(len(body))
	} else {
		n, err = io.Copy(io.Discard, resp.Body)
	}
	if err != nil {
		return nil, n, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, n, fmt.Errorf("multiply: %s", resp.Status)
	}
	return body, n, nil
}

// serveRun is the server, the ids of everything uploaded at set-up and
// the clients.
type serveRun struct {
	*serveEnv
	in      *serveInputs
	baseIDs []string
	wideID  string
	clients []*serveClient
}

// setupServeMix starts the server, uploads the base matrices, computes the
// hot products once so the measured hits find them cached, and uploads
// each client's first fresh factor.
func setupServeMix(ctx context.Context, seed uint64, perClient int) (*serveRun, error) {
	in, err := serveMixInputs(seed, perClient)
	if err != nil {
		return nil, err
	}
	env, err := startServer(serve.Config{
		MemoryCeilingBytes:  serveCeiling,
		DegradedBudgetBytes: serveDegradedBudget,
		CacheBudgetBytes:    serveCacheBudget,
	})
	if err != nil {
		return nil, err
	}
	s := &serveRun{serveEnv: env, in: in, baseIDs: make([]string, serveBases)}
	fail := func(err error) (*serveRun, error) {
		env.stop()
		return nil, err
	}
	for i, m := range in.bases {
		if s.baseIDs[i], err = uploadMatrix(ctx, env, m); err != nil {
			return fail(err)
		}
	}
	if s.wideID, err = uploadMatrix(ctx, env, in.wide); err != nil {
		return fail(err)
	}
	for i := 0; i < serveBases; i++ {
		if _, _, err := env.multiply(ctx, s.hot(i), false); err != nil {
			return fail(fmt.Errorf("warm-up: %w", err))
		}
	}
	s.clients = make([]*serveClient, serveClients)
	for c := range s.clients {
		s.clients[c] = &serveClient{id: c, rng: gen.NewRNG(subSeed(seed, uint64(40+c))), fresh: -1}
		if err := s.clients[c].uploadNext(ctx, s); err != nil {
			return fail(err)
		}
	}
	return s, nil
}

// hot is hot product i: base i times base i+1.
func (s *serveRun) hot(i int) multiplyBody {
	return multiplyBody{A: s.baseIDs[i], B: s.baseIDs[(i+1)%serveBases]}
}

// sample is a binary response kept for checking after the loop.
type sample struct {
	kind reqKind
	a, b *pbspgemm.CSR
	body []byte
}

// serveClient is one closed-loop client: it draws request kinds from its
// own seeded stream and owns its fresh factors.
type serveClient struct {
	id     int
	rng    *gen.RNG
	cycle  []reqKind
	pos    int
	fresh  int // index of the newest uploaded fresh factor, -1 before any
	fid    string
	used   [numKinds]int // cold requests of each kind served by fresh
	hits   int           // hits issued
	binary int           // binary responses requested
	// measured
	lats       [numKinds][]float64 // ms, per kind, successful requests
	traced     []float64
	plain      []float64
	attempted  int64
	failed     int64
	respBytes  int64
	multiplies int64
	reqWall    time.Duration // Σ wall of successful multiply requests
	samples    []sample
}

// draw returns the next kind of the client's schedule: cycles of 100
// requests holding exactly kindWeights of each kind, each cycle shuffled
// from the client's seed stream. Exact proportions keep the expensive
// kinds' share, and with it throughput and the tail, the same in every run.
func (c *serveClient) draw() reqKind {
	if c.pos == len(c.cycle) {
		if c.cycle == nil {
			for k, n := range kindWeights {
				for i := 0; i < n; i++ {
					c.cycle = append(c.cycle, reqKind(k))
				}
			}
		}
		for i := len(c.cycle) - 1; i > 0; i-- {
			j := c.rng.Intn(int32(i + 1))
			c.cycle[i], c.cycle[j] = c.cycle[j], c.cycle[i]
		}
		c.pos = 0
	}
	c.pos++
	return c.cycle[c.pos-1]
}

// request builds the product request of kind, consuming one cold combo.
func (c *serveClient) request(s *serveRun, kind reqKind) (multiplyBody, *pbspgemm.CSR, *pbspgemm.CSR) {
	f := s.in.fresh[c.id][c.fresh]
	j := c.used[kind]
	c.used[kind]++
	switch kind {
	case kindHit:
		i := int(c.rng.Intn(serveBases))
		return s.hot(i), s.in.bases[i], s.in.bases[(i+1)%serveBases]
	case kindDegraded:
		if j == 0 {
			return multiplyBody{A: c.fid, B: s.wideID}, f, s.in.wide
		}
		return multiplyBody{A: s.wideID, B: c.fid}, s.in.wide, f
	}
	mb := multiplyBody{A: c.fid, B: s.baseIDs[j]}
	switch kind {
	case kindBoolean:
		mb.Semiring = "boolean"
	case kindMinPlus:
		mb.Semiring = "minplus"
	}
	return mb, f, s.in.bases[j]
}

// uploadNext registers the client's next fresh factor.
func (c *serveClient) uploadNext(ctx context.Context, s *serveRun) error {
	_, bin, err := s.in.freshFactor(c.id, c.fresh+1)
	if err != nil {
		return err
	}
	id, err := s.upload(ctx, bin)
	if err != nil {
		return err
	}
	c.fresh, c.fid, c.used = c.fresh+1, id, [numKinds]int{}
	return nil
}

// step issues one request of kind and records it.
func (c *serveClient) step(ctx context.Context, s *serveRun, kind reqKind, op int64, rec *recorder) {
	var mb multiplyBody
	var a, b *pbspgemm.CSR
	if kind != kindUpload {
		mb, a, b = c.request(s, kind)
		// Computed products come back as binary matrices, and so does
		// every 13th hit: about a third of all responses. The other hits
		// (60% of requests) return metadata, so the median request is a
		// cache hit answered in JSON.
		if kind != kindHit || c.hits%13 == 0 {
			mb.Output = "binary"
			c.binary++
		}
		if kind == kindHit {
			c.hits++
		}
	}
	keep := mb.Output == "binary" && c.binary%4 == 0 && len(c.samples) < serveSamplesPerClient
	start := time.Now()
	id := rec.begin("serve."+kindNames[kind], op, 0)
	var body []byte
	var n int64
	var err error
	if kind == kindUpload {
		err = c.uploadNext(ctx, s)
	} else {
		body, n, err = s.multiply(ctx, mb, keep)
	}
	rec.end(id)
	d := time.Since(start)
	c.attempted++
	if err != nil {
		c.failed++
		return
	}
	c.lats[kind] = append(c.lats[kind], ms(d))
	if kind != kindUpload {
		c.multiplies++
		c.respBytes += n
		c.reqWall += d
	}
	if rec != nil {
		c.traced = append(c.traced, ms(d))
	} else {
		c.plain = append(c.plain, ms(d))
	}
	if keep {
		c.samples = append(c.samples, sample{kind, a, b, body})
	}
}

// loop runs the client until the measured duration is over.
func (c *serveClient) loop(ctx context.Context, s *serveRun, cfg runConfig, start time.Time) {
	for i := int64(0); time.Since(start) < cfg.duration; i++ {
		op := int64(c.id)<<32 | i
		kind := c.draw()
		if kind != kindHit && kind != kindUpload && c.used[kind] >= combos[kind] {
			// The newest factor has met every partner of this kind: upload
			// the next one first, as a request of its own.
			c.step(ctx, s, kindUpload, op, cfg.traced(i))
			i++
			op = int64(c.id)<<32 | i
		}
		c.step(ctx, s, kind, op, cfg.traced(i))
	}
}

func runServeMix(cfg runConfig) (*runResult, error) {
	r := newRunResult()
	ctx := context.Background()
	llc := llcBytes()
	var dramGBs, llcGBs float64
	if cfg.rec != nil {
		dramGBs, llcGBs = triads(llc, runtime.GOMAXPROCS(0))
	}
	// A client uploads a few factors per second; pre-generating them keeps
	// generation out of the measured loop.
	perClient := 8*int(cfg.duration/time.Second) + 8
	var s *serveRun
	setups := make([]float64, setupReps)
	for i := range setups {
		if s != nil {
			s.stop()
			s = nil
		}
		runtime.GC()
		start := time.Now()
		var err error
		if s, err = setupServeMix(ctx, cfg.seed, perClient); err != nil {
			return nil, err
		}
		setups[i] = time.Since(start).Seconds()
	}
	defer s.stop()
	clients := s.clients

	startPeakWindow(r)
	m0 := s.srv.Metrics()
	e0 := s.eng.Metrics()
	gc := startGCClock()
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loop(ctx, s, cfg, start)
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	gcFrac := gc.frac()
	m1 := s.srv.Metrics()
	e1 := s.eng.Metrics()

	var all, traced, plain []float64
	var kinds [numKinds][]float64
	var respBytes, multiplies int64
	var reqWall time.Duration
	var samples []sample
	for _, c := range clients {
		r.attempted += c.attempted
		r.failed += c.failed
		for k := range kinds {
			kinds[k] = append(kinds[k], c.lats[k]...)
			all = append(all, c.lats[k]...)
		}
		traced = append(traced, c.traced...)
		plain = append(plain, c.plain...)
		respBytes += c.respBytes
		multiplies += c.multiplies
		reqWall += c.reqWall
		samples = append(samples, c.samples...)
	}
	if err := checkSamples(ctx, samples, r); err != nil {
		return nil, err
	}
	r.e2e["setup_s"] = median(setups)
	r.e2e["gflops"] = float64(e1.Flops-e0.Flops) / wall.Seconds() / 1e9
	r.e2e["req_per_s"] = float64(len(all)) / wall.Seconds()
	tailLatency(r, all)
	r.e2e["ok_frac"] = 1 - frac(r.failed, r.attempted)
	// Many small requests: the peak over the whole loop is steady here.
	r.e2e["peak_rss_mib"] = float64(peakRSSBytes()) / (1 << 20)
	for k, name := range kindNames {
		r.info["requests_"+name] = len(kinds[k])
	}
	r.info["checked_binary_responses"] = r.checked

	if cfg.rec == nil {
		return r, nil
	}
	l := r.layer
	l["serve.hit_ms"] = median(kinds[kindHit])
	l["serve.cold_ms"] = median(kinds[kindCold])
	l["serve.semiring_ms"] = median(append(append([]float64(nil), kinds[kindBoolean]...), kinds[kindMinPlus]...))
	l["serve.degraded_ms"] = median(kinds[kindDegraded])
	l["serve.upload_ms"] = median(kinds[kindUpload])
	var mults []float64
	for k := range kinds {
		if reqKind(k) != kindUpload {
			mults = append(mults, kinds[k]...)
		}
	}
	handler := m1.Latency["POST /multiply"].P50Ms
	l["serve.handler_ms"] = handler
	l["serve.transport_ms"] = median(mults) - handler
	l["serve.engine_share"] = float64(e1.Busy-e0.Busy) / float64(reqWall)
	hits, misses := m1.Cache.Hits-m0.Cache.Hits, m1.Cache.Misses-m0.Cache.Misses
	l["serve.cache_hit_ratio"] = frac(hits, hits+misses)
	l["serve.coalesced"] = float64(m1.Coalesced - m0.Coalesced)
	l["serve.queued"] = float64(m1.Admission.Queued - m0.Admission.Queued)
	l["serve.shed"] = float64(m1.Admission.Shed - m0.Admission.Shed)
	l["serve.degraded"] = float64(m1.Degraded - m0.Degraded)
	l["serve.resp_bytes"] = float64(respBytes) / float64(multiplies)
	var autoHash, autoAll int64
	for alg, am := range e1.ByAlgorithm {
		n := am.AutoChosen - e0.ByAlgorithm[alg].AutoChosen
		autoAll += n
		if alg == pbspgemm.Hash {
			autoHash += n
		}
	}
	l["engine.auto_chosen_hash_share"] = frac(autoHash, autoAll)
	l["runtime.gc_cpu_frac"] = gcFrac
	l["trace.overhead_frac"] = median(traced)/median(plain) - 1

	// The server plans every cold product twice: Engine.Plan for
	// admission, then Multiply(Auto) plans again. Time one plan on a cold
	// pair; the redundant one is this share of a cold request.
	f := s.in.fresh[0][0]
	_, planMs, err := timePlan(ctx, s.eng, f, s.in.bases[0])
	if err != nil {
		return nil, err
	}
	l["engine.plan_ms"] = planMs
	l["serve.double_plan_frac"] = planMs / l["serve.cold_ms"]
	// The kernel layer behind the degraded rung: replay the degraded
	// product on a local Engine under the same budget and algorithm.
	if err := replayLayer(ctx, l, f, s.in.wide, llc, dramGBs, llcGBs,
		pbspgemm.WithAlgorithm(pbspgemm.Auto), pbspgemm.WithMemoryBudget(serveDegradedBudget)); err != nil {
		return nil, err
	}
	return r, nil
}

// replayLayer runs a·b sideReps times on a fresh Engine and reports the
// kernel and Engine layers of those calls, against the Triad of the tier
// the product's working set fits.
func replayLayer(ctx context.Context, l map[string]float64, a, b *pbspgemm.CSR, llc int64, dramGBs, llcGBs float64, opts ...pbspgemm.Option) error {
	eng, err := pbspgemm.NewEngine(opts...)
	if err != nil {
		return err
	}
	if _, err := eng.Multiply(ctx, a, b); err != nil {
		return fmt.Errorf("replay warm-up: %w", err)
	}
	var stats []pbspgemm.PhaseStats
	var calls, selfs []float64
	var ws int64
	for i := 0; i < sideReps; i++ {
		start := time.Now()
		res, err := eng.Multiply(ctx, a, b)
		d := time.Since(start)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		if res.PB == nil {
			return nil // the planner chose a column kernel: no phase breakdown
		}
		stats = append(stats, *res.PB)
		calls = append(calls, ms(d))
		selfs = append(selfs, ms(d-res.PB.Total))
		ws = kernelWorkingSet(a, b, res.Flops, res.PB.TupleBytes, res.C.NNZ())
	}
	coreLayer(l, stats, tierTriad(tierFor(ws, llc), dramGBs, llcGBs), a.NNZ(), b.NNZ())
	streamLayer(l, dramGBs, llcGBs)
	l["engine.call_ms"] = median(calls)
	l["engine.self_ms"] = median(selfs)
	l["engine.self_frac"] = median(selfs) / median(calls)
	return nil
}

// checkSamples decodes the kept binary responses and compares each with
// the same product computed on a local Engine.
func checkSamples(ctx context.Context, samples []sample, r *runResult) error {
	eng, err := pbspgemm.NewEngine()
	if err != nil {
		return err
	}
	for _, s := range samples {
		got, err := mmio.ReadBinary(bytes.NewReader(s.body))
		if err != nil {
			return fmt.Errorf("decoding a %s response: %w", kindNames[s.kind], err)
		}
		var want *pbspgemm.CSR
		switch s.kind {
		case kindBoolean:
			g, err := pbspgemm.EngineMultiplyOver(eng, ctx, pbspgemm.Boolean(),
				pbspgemm.MatrixOf(s.a, func(float64) bool { return true }).ToCSC(),
				pbspgemm.MatrixOf(s.b, func(float64) bool { return true }))
			if err != nil {
				return err
			}
			want = &pbspgemm.CSR{NumRows: g.NumRows, NumCols: g.NumCols, RowPtr: g.RowPtr, ColIdx: g.ColIdx,
				Val: ones(len(g.ColIdx))}
		case kindMinPlus:
			g, err := pbspgemm.EngineMultiplyOver(eng, ctx, pbspgemm.MinPlus(),
				pbspgemm.Float64Matrix(s.a).ToCSC(), pbspgemm.Float64Matrix(s.b))
			if err != nil {
				return err
			}
			want = pbspgemm.Float64CSR(g)
		default:
			res, err := eng.Multiply(ctx, s.a, s.b)
			if err != nil {
				return err
			}
			want = res.C
		}
		r.checked++
		if !pbspgemm.EqualWithin(got, want, verifyTol) {
			r.wrong++
			r.failed++
		}
	}
	return nil
}

func ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}
