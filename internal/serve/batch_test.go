package serve_test

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"manualhijack/internal/identity"
	"manualhijack/internal/serve"
)

// TestBatchMatchesSingles drives the same login sequence through two
// identically-seeded engines — one via /v1/score + /v1/outcome, one via a
// single /v1/score.batch stream — and requires identical decisions.
func TestBatchMatchesSingles(t *testing.T) {
	single, _ := newTestServer(t, 4)
	batched, _ := newTestServer(t, 4)

	base := time.Date(2012, 11, 2, 9, 0, 0, 0, time.UTC)
	var reqs []serve.ScoreRequest
	for i := 0; i < 40; i++ {
		reqs = append(reqs, serve.ScoreRequest{
			Account:    identity.AccountID(1 + i%5),
			IP:         "203.0.113.7",
			DeviceID:   "dev-batch",
			At:         base.Add(time.Duration(i) * time.Minute),
			PasswordOK: i%3 != 0,
		})
	}

	var items []serve.BatchItem
	var want []serve.ScoreResponse
	for _, req := range reqs {
		resp, err := single.Score(req)
		if err != nil {
			t.Fatalf("single score: %v", err)
		}
		want = append(want, *resp)
		items = append(items, serve.ScoreItem(req))
		out := serve.OutcomeRequest{Account: req.Account, IP: req.IP,
			DeviceID: req.DeviceID, At: req.At, Success: req.PasswordOK}
		if err := single.Outcome(out); err != nil {
			t.Fatalf("single outcome: %v", err)
		}
		items = append(items, serve.OutcomeItem(out))
	}

	results, err := batched.Batch(items)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(results) != len(items) {
		t.Fatalf("got %d results for %d items", len(results), len(items))
	}
	for i, res := range results {
		if i%2 == 0 { // score line
			if res.Score == nil {
				t.Fatalf("item %d: expected score response, got %+v", i, res)
			}
			w := want[i/2]
			if res.Score.Score != w.Score || res.Score.Verdict != w.Verdict ||
				res.Score.ChallengeMethod != w.ChallengeMethod || res.Score.Signals != w.Signals {
				t.Fatalf("item %d: batch decision %+v != single decision %+v", i, *res.Score, w)
			}
		} else { // outcome line
			if !res.OK || res.Err != "" {
				t.Fatalf("item %d: expected ok outcome ack, got %+v", i, res)
			}
		}
	}
}

// TestBatchPerLineErrors checks that invalid lines produce error lines
// without desynchronizing the stream, and that blank lines are skipped.
func TestBatchPerLineErrors(t *testing.T) {
	c, _ := newTestServer(t, 1)

	body := strings.Join([]string{
		`{"account":1,"ip":"1.2.3.4","at":"2012-11-02T09:00:00Z","password_ok":true}`,
		``, // blank: skipped, no response line
		`{"account":0,"ip":"1.2.3.4","at":"2012-11-02T09:00:00Z"}`, // missing account
		`not json at all`, // parse failure
		`{"op":"frobnicate","account":1,"ip":"1.2.3.4","at":"2012-11-02T09:00:00Z"}`, // unknown op
		`{"op":"outcome","account":1,"ip":"1.2.3.4","at":"2012-11-02T09:01:00Z","success":true}`,
	}, "\n")

	r, err := http.Post(c.Base+"/v1/score.batch", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status %d", r.StatusCode)
	}
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	lines := nonBlankLines(string(raw))
	if len(lines) != 5 {
		t.Fatalf("expected 5 response lines, got %d: %q", len(lines), lines)
	}
	if !strings.Contains(lines[0], `"score"`) {
		t.Errorf("line 0: expected score response, got %q", lines[0])
	}
	for i, frag := range map[int]string{1: "account", 2: "bad json", 3: "unknown op"} {
		if !strings.Contains(lines[i], `"error"`) || !strings.Contains(lines[i], frag) {
			t.Errorf("line %d: expected error mentioning %q, got %q", i, frag, lines[i])
		}
	}
	if lines[4] != `{"ok":true}` {
		t.Errorf("line 4: expected outcome ack, got %q", lines[4])
	}
}

// TestBatchCountsMetrics checks batch traffic lands in the same statz
// counters as single requests.
func TestBatchCountsMetrics(t *testing.T) {
	c, _ := newTestServer(t, 1)
	items := []serve.BatchItem{
		serve.ScoreItem(validScoreReq()),
		serve.OutcomeItem(serve.OutcomeRequest{Account: 1, IP: "1.2.3.4",
			At: time.Date(2012, 11, 2, 9, 1, 0, 0, time.UTC), Success: true}),
		{Op: "bogus", Account: 1, IP: "1.2.3.4", At: time.Date(2012, 11, 2, 9, 2, 0, 0, time.UTC)},
	}
	results, err := c.Batch(items)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if results[0].Score == nil || !results[1].OK || results[2].Err == "" {
		t.Fatalf("unexpected batch results: %+v", results)
	}
	st, err := c.Statz()
	if err != nil {
		t.Fatalf("statz: %v", err)
	}
	if st.Score != 1 || st.Outcome != 1 || st.BadRequests != 1 {
		t.Fatalf("statz score=%d outcome=%d bad=%d, want 1/1/1",
			st.Score, st.Outcome, st.BadRequests)
	}
}

func nonBlankLines(s string) []string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.TrimSpace(l) != "" {
			out = append(out, l)
		}
	}
	return out
}
