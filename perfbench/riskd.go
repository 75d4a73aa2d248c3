package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"manualhijack/internal/core"
	"manualhijack/internal/event"
	"manualhijack/internal/logstore"
	"manualhijack/internal/serve"
	"manualhijack/internal/stream"
)

// replayBatch is how many logins each /v1/score.batch round trip carries.
const replayBatch = 64

// riskdProc is one running riskd, started fresh for each replay: replay
// parity needs analyzer state that has seen nothing else.
type riskdProc struct {
	cmd    *exec.Cmd
	base   string
	ready  time.Duration // process start until /v1/healthz answered
	log    strings.Builder
	done   chan struct{} // closed once stderr hits EOF
	waited bool
}

// startRiskd starts riskd on a free loopback port, bootstrapped from the
// dump world's seed and population, and waits until it is healthy.
func startRiskd(ctx context.Context, e *env) (*riskdProc, error) {
	p := &riskdProc{done: make(chan struct{})}
	p.cmd = command(ctx, binPath("riskd"),
		"-addr", "127.0.0.1:0",
		"-seed", strconv.FormatInt(dumpSeed(e.seed), 10),
		"-pop", strconv.Itoa(dumpPop))
	pipe, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start riskd: %w", err)
	}
	addr := make(chan string, 1) // one send, read at most once
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(pipe)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(os.Stderr, line)
			p.log.WriteString(line + "\n")
			if rest, ok := strings.CutPrefix(line, "riskd: listening on "); ok && !sent {
				sent = true
				addr <- strings.Fields(rest)[0]
			}
		}
	}()
	select {
	case a := <-addr:
		p.base = "http://" + a
	case <-p.done:
		p.stop()
		return nil, fmt.Errorf("riskd exited before listening")
	case <-ctx.Done():
		p.stop()
		return nil, ctx.Err()
	}
	hc := &http.Client{Timeout: 2 * time.Second}
	for {
		r, err := hc.Get(p.base + "/v1/healthz")
		if err == nil {
			r.Body.Close()
			if r.StatusCode == http.StatusOK {
				break
			}
		}
		if ctx.Err() != nil {
			p.stop()
			return nil, fmt.Errorf("riskd never became healthy: %w", ctx.Err())
		}
		time.Sleep(time.Millisecond)
	}
	p.ready = time.Since(start)
	hc.CloseIdleConnections()
	return p, nil
}

// getJSON fetches one of riskd's JSON endpoints.
func (p *riskdProc) getJSON(path string, into any) error {
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	r, err := hc.Get(p.base + path)
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, r.Status)
	}
	return json.NewDecoder(r.Body).Decode(into)
}

// riskdExit is how a riskd shut down.
type riskdExit struct {
	drained bool
	code    int
	maxRSS  float64 // MiB
}

// stop sends SIGTERM and waits for riskd to drain and exit. It is safe to
// call more than once.
func (p *riskdProc) stop() riskdExit {
	if p.waited {
		return riskdExit{code: -1}
	}
	p.waited = true
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an exited process needs no signal
	<-p.done
	_ = p.cmd.Wait() // the exit code and rusage below carry the outcome
	var res procResult
	fillUsage(&res, p.cmd.ProcessState)
	return riskdExit{
		drained: strings.Contains(p.log.String(), "riskd: drained cleanly"),
		code:    p.cmd.ProcessState.ExitCode(),
		maxRSS:  res.MaxRSS,
	}
}

// checkServer reads /v1/statz and /v1/streamz after a replay and fails
// the run on any refused or malformed request.
func checkServer(o *outcome, p *riskdProc) (*serve.StatzResponse, *stream.Report, error) {
	var statz serve.StatzResponse
	if err := p.getJSON("/v1/statz", &statz); err != nil {
		return nil, nil, err
	}
	var streamz stream.Report
	if err := p.getJSON("/v1/streamz", &streamz); err != nil {
		return nil, nil, err
	}
	if statz.Rejected > 0 || statz.BadRequests > 0 {
		o.wrong(statz.Rejected+statz.BadRequests, "riskd refused %d (429) and rejected %d malformed requests",
			statz.Rejected, statz.BadRequests)
	}
	return &statz, &streamz, nil
}

// checkExit fails the run unless riskd drained cleanly on SIGTERM.
func checkExit(o *outcome, x riskdExit) {
	if !x.drained || x.code != 0 {
		o.wrong(1, "riskd did not drain cleanly on SIGTERM (exit %d)", x.code)
	}
}

// countReplay counts one lane replay of the dump as one operation, failed
// if any of its decisions mismatched the logged score. The mismatches are
// the lane-replay parity defect (ROADMAP item 1): counted, not hidden. A
// replay is the unit because which and how many logins mismatch depends on
// goroutine scheduling, so a per-login count differs between runs of the
// same code, while every 2-lane replay of the dump mismatches somewhere.
func countReplay(o *outcome, rs *serve.ReplayStats) {
	o.attempted++
	if rs.Mismatches > 0 {
		o.failed++
		fmt.Fprintf(os.Stderr, "perfbench: riskd replay: %d of %d logins mismatched (first: %s)\n",
			rs.Mismatches, rs.Scored, rs.FirstMismatch)
	}
}

// riskloadSummary is the part of riskload's JSON summary the benchmark reads.
type riskloadSummary struct {
	DurationS float64            `json:"duration_s"`
	Errors    int64              `json:"errors"`
	Rejected  int64              `json:"rejected_429"`
	Replay    *serve.ReplayStats `json:"replay"`
}

func parseRiskload(b []byte) (*riskloadSummary, error) {
	var s riskloadSummary
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("riskload summary: %w", err)
	}
	if s.Replay == nil || s.DurationS <= 0 {
		return nil, fmt.Errorf("riskload summary has no replay block")
	}
	return &s, nil
}

// riskdRep is one measured replay through a fresh riskd.
type riskdRep struct {
	setup, replay, total, rss float64
	scored                    int
}

func riskdOnce(ctx context.Context, e *env, o *outcome, dump string) (*riskdRep, error) {
	srv, err := startRiskd(ctx, e)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	r, err := runProc(ctx, nil, binPath("riskload"),
		"-addr", srv.base, "-replay", dump,
		"-workers", strconv.Itoa(e.nproc), "-batch", strconv.Itoa(replayBatch), "-json", "-")
	if err != nil {
		return nil, err
	}
	sum, perr := parseRiskload(r.Stdout)
	if perr != nil {
		o.attempted++
		o.wrong(1, "riskload exited %d: %v", r.ExitCode, perr)
		checkExit(o, srv.stop())
		return nil, nil
	}
	countReplay(o, sum.Replay)
	if sum.Errors > 0 || sum.Rejected > 0 {
		o.wrong(sum.Errors+sum.Rejected, "riskload saw %d errors and %d 429s", sum.Errors, sum.Rejected)
	}
	if (r.ExitCode != 0) != (sum.Replay.Mismatches > 0) {
		o.wrong(1, "riskload exited %d with %d mismatches", r.ExitCode, sum.Replay.Mismatches)
	}
	if _, _, err := checkServer(o, srv); err != nil {
		return nil, err
	}
	x := srv.stop()
	checkExit(o, x)
	load := r.Wall.Seconds() - sum.DurationS // riskload start until its replay began
	return &riskdRep{
		setup:  srv.ready.Seconds() + load,
		replay: sum.DurationS,
		total:  r.Wall.Seconds(),
		rss:    x.maxRSS,
		scored: sum.Replay.Scored,
	}, nil
}

func runRiskd(ctx context.Context, e *env) (*outcome, error) {
	dump, err := ensureDump(ctx, e)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	var setups, walls, rss, rates []float64
	err = repeat(ctx, e, minReps, func() error {
		rep, err := riskdOnce(ctx, e, o, dump)
		if rep != nil {
			setups = append(setups, rep.setup)
			walls = append(walls, rep.replay)
			rss = append(rss, rep.rss)
			rates = append(rates, ratio(float64(rep.scored), rep.replay))
			logSample("riskd", "setup_s", rep.setup, "wall_s", rep.replay, "peak_rss_mib", rep.rss)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	o.v["setup_s"] = median(setups)
	o.v["wall_s"] = median(walls)
	o.v["peak_rss_mib"] = median(rss)
	o.v["logins_per_s"] = median(rates)
	return o, nil
}

func traceRiskd(ctx context.Context, e *env) (*outcome, error) {
	dump, err := ensureDump(ctx, e)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	base, err := riskdOnce(ctx, e, o, dump)
	if err != nil {
		return nil, err
	}

	srv, err := startRiskd(ctx, e)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	tr := newTracer()
	prof, err := startProfiler()
	if err != nil {
		return nil, err
	}
	var (
		st               *logstore.Store
		rs               serve.ReplayStats
		loadErr, repErr  error
		srvCPU, cliCPU   time.Duration
		srvErr0, srvErr1 error
	)
	tr.do("riskd", func() {
		tr.do("logstore.ReadNDJSONFile", func() { st, _, loadErr = logstore.ReadNDJSONFile(dump, logstore.ReadOptions{}) })
		if loadErr != nil {
			return
		}
		var s0, s1 time.Duration
		s0, srvErr0 = procCPU(srv.cmd.Process.Pid)
		c0 := selfCPU()
		tr.do("serve.Replay", func() {
			rs, repErr = serve.Replay(st, &serve.Client{Base: srv.base}, serve.ReplayConfig{
				ChallengeThreshold: serve.DefaultConfig(0).ChallengeThreshold,
				BlockThreshold:     serve.DefaultConfig(0).BlockThreshold,
				Workers:            e.nproc,
				BatchSize:          replayBatch,
			})
		})
		s1, srvErr1 = procCPU(srv.cmd.Process.Pid)
		srvCPU, cliCPU = s1-s0, selfCPU()-c0
	})
	if err := prof.stop(o.v); err != nil {
		return nil, err
	}
	for _, err := range []error{loadErr, srvErr0, srvErr1} {
		if err != nil {
			return nil, err
		}
	}
	if repErr != nil {
		o.attempted++
		o.wrong(1, "in-process replay: %v", repErr)
	} else {
		countReplay(o, &rs)
	}
	statz, streamz, err := checkServer(o, srv)
	if err != nil {
		return nil, err
	}
	checkExit(o, srv.stop())

	self := selfTimes(tr.spans)
	fi, err := os.Stat(dump)
	if err != nil {
		return nil, err
	}
	read := self["logstore.ReadNDJSONFile"].Seconds()
	o.v["logstore.read_s"] = read
	o.v["logstore.read_mib_per_s"] = ratio(float64(fi.Size())/(1<<20), read)
	o.v["logstore.records"] = float64(st.Len())
	o.v["serve.replay_s"] = self["serve.Replay"].Seconds()
	o.v["serve.server_cpu_s"] = srvCPU.Seconds()
	o.v["serve.client_cpu_s"] = cliCPU.Seconds()
	o.v["serve.http_requests"] = float64(rs.HTTPReqs)
	o.v["serve.p50_us"] = statz.Latency.P50us
	o.v["serve.p99_us"] = statz.Latency.P99us
	o.v["serve.rejected_429"] = float64(statz.Rejected)
	o.v["serve.bad_requests"] = float64(statz.BadRequests)
	o.v["serve.mismatches"] = float64(rs.Mismatches)
	o.v["stream.events_observed"] = float64(streamz.EventsObserved)
	o.v["stream.events_dropped"] = float64(streamz.EventsDropped)
	o.v["stream.observed_share"] = ratio(float64(streamz.EventsObserved), float64(streamz.EventsObserved+streamz.EventsDropped))
	storeWorkCounts(o.v, st)
	if base != nil {
		traceOverhead(o.v, tr, "riskd", base.total)
	}

	stages, err := timeServeStages(st, dumpSeed(e.seed))
	if err != nil {
		return nil, err
	}
	o.attempted++
	if stages.mismatches > 0 {
		o.wrong(1, "sequential in-process scoring mismatched %d logged scores", stages.mismatches)
	}
	ns, err := decodeNsPerRecord(dump)
	if err != nil {
		return nil, err
	}
	o.v["event.decode_ns_per_record"] = ns
	o.v["serve.decode_ns"] = stages.decodeNs
	o.v["serve.score_ns"] = stages.scoreNs
	o.v["serve.encode_ns"] = stages.encodeNs
	return o, writeSpans(workPath(fmt.Sprintf("spans-riskd-%d.json", e.seed)), tr.spans)
}

// selfCPU is the benchmark process's consumed CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// serveStages is the per-login cost of riskd's three stages.
type serveStages struct {
	decodeNs, scoreNs, encodeNs float64 // per batch line, per login, per response
	mismatches                  int
}

// timeServeStages replays the dump's logins through an in-process engine
// built as riskd builds one, on one goroutine, timing each stage over all
// logins: DecodeBatchItem over the encoded score and outcome lines,
// Engine.Score plus RecordOutcome per login, and AppendScoreResponse per
// decision. Run sequentially, the scores must equal the logged ones.
func timeServeStages(st *logstore.Store, seed int64) (serveStages, error) {
	var res serveStages
	cfg := serve.DefaultConfig(seed)
	dir := core.NewStudyDirectory(seed, core.DefaultConfig(seed).Start, dumpPop)
	eng := serve.New(dir, core.DefaultIPPlan(), cfg)
	eng.Prime()

	var (
		items  []serve.BatchItem
		expect []float64 // the logged score per login
		wire   []byte
		ends   []int
	)
	for _, ev := range logstore.Select[event.Login](st) {
		if ev.Outcome == event.LoginBlocked && ev.RiskScore < cfg.BlockThreshold {
			continue // never scored by the simulator; replay skips these too
		}
		expect = append(expect, ev.RiskScore)
		ip := ev.IP.String()
		items = append(items,
			serve.ScoreItem(serve.ScoreRequest{Account: ev.Account, IP: ip, DeviceID: ev.DeviceID,
				At: ev.Time, PasswordOK: ev.PasswordOK}),
			serve.OutcomeItem(serve.OutcomeRequest{Account: ev.Account, IP: ip, DeviceID: ev.DeviceID,
				At: ev.Time, Success: ev.Outcome == event.LoginSuccess}))
		for _, it := range items[len(items)-2:] {
			wire = serve.AppendBatchItem(wire, &it)
			ends = append(ends, len(wire))
		}
	}
	logins := len(items) / 2
	if logins == 0 {
		return res, fmt.Errorf("dump holds no scored logins")
	}

	start := time.Now()
	var item serve.BatchItem
	prev := 0
	for _, end := range ends {
		if err := serve.DecodeBatchItem(wire[prev:end], &item); err != nil {
			return res, fmt.Errorf("DecodeBatchItem: %w", err)
		}
		prev = end
	}
	res.decodeNs = ratio(float64(time.Since(start).Nanoseconds()), float64(len(ends)))

	resps := make([]serve.ScoreResponse, logins)
	start = time.Now()
	for i := 0; i < logins; i++ {
		sc, oc := &items[2*i], &items[2*i+1]
		req := serve.ScoreRequest{Account: sc.Account, IP: sc.IP, DeviceID: sc.DeviceID, At: sc.At, PasswordOK: sc.PasswordOK}
		att, err := req.Attempt()
		if err != nil {
			return res, err
		}
		d := eng.Score(att, nil)
		resps[i] = serve.ScoreResponse{Score: d.Score, Signals: d.Signals, Verdict: d.Verdict, ChallengeMethod: d.ChallengeMethod}
		out := serve.OutcomeRequest{Account: oc.Account, IP: oc.IP, DeviceID: oc.DeviceID, At: oc.At, Success: oc.Success}
		oatt, err := out.Attempt()
		if err != nil {
			return res, err
		}
		eng.RecordOutcome(oatt, out.Success)
	}
	res.scoreNs = ratio(float64(time.Since(start).Nanoseconds()), float64(logins))
	for i, r := range resps {
		if r.Score != expect[i] {
			res.mismatches++
		}
	}

	var buf []byte
	start = time.Now()
	for i := range resps {
		buf = serve.AppendScoreResponse(buf[:0], &resps[i])
	}
	res.encodeNs = ratio(float64(time.Since(start).Nanoseconds()), float64(logins))
	return res, nil
}
