package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cliffedge/internal/campaign"
	"cliffedge/internal/serve"
)

var discard = slog.New(slog.DiscardHandler)

// surface is one daemon mode's HTTP API under test: cliffedged's
// /campaigns or a coordinator's /fleets. start brings it up over the
// store in dir; stop shuts it down the way a restart would, leaving
// whatever is still running in the store.
type surface struct {
	noun  string
	start func(t *testing.T, dir string) (base string, stop func())
}

// surfaces lists both modes. The serve side admits one active campaign
// per client, so a leaked admission slot shows up as a 429 on the next
// submit; the fleet side shards over one in-process worker.
func surfaces() []surface {
	return []surface{
		{"campaigns", func(t *testing.T, dir string) (string, func()) {
			srv, err := serve.NewServer(dir, serve.Config{Workers: 2, MaxPerClient: 1, Logger: discard})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			return ts.URL, func() { ts.Close(); srv.Shutdown() }
		}},
		{"fleets", func(t *testing.T, dir string) (string, func()) {
			_, w := newWorker(t, nil)
			co, err := NewCoordinator(dir, Config{
				Workers:       []string{w.URL},
				Shards:        2,
				SyncEvery:     4,
				WorkerTimeout: 30 * time.Second,
				Logger:        discard,
			})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(NewServer(co).Handler())
			return ts.URL, func() { ts.Close(); co.Shutdown() }
		}},
	}
}

// call issues one request and returns the status code and whole body.
func call(t *testing.T, method, url string, body []byte, header ...string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	return resp.StatusCode, data
}

// post submits spec as client and returns the status code and, on 201,
// the new ID and job total.
func post(t *testing.T, base, noun, client string, spec any) (code int, id string, total int) {
	t.Helper()
	body, _ := json.Marshal(spec)
	code, data := call(t, "POST", base+"/api/v1/"+noun, body, "X-Client-ID", client)
	if code == http.StatusCreated {
		var out struct {
			ID    string `json:"id"`
			Total int    `json:"total"`
		}
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("submit response %s: %v", data, err)
		}
		id, total = out.ID, out.Total
	}
	return code, id, total
}

// events reads a whole SSE response (the server ends it after the
// terminal event) and decodes its data lines.
func events(t *testing.T, url string, header ...string) []serve.Event {
	t.Helper()
	code, data := call(t, "GET", url, nil, header...)
	if code != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, code, data)
	}
	var out []serve.Event
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev serve.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad SSE data %q: %v", line, err)
		}
		out = append(out, ev)
	}
	return out
}

// sameJSON compares two JSON documents up to insignificant whitespace:
// an event's embedded report arrives compacted.
func sameJSON(a, b []byte) bool {
	var ca, cb bytes.Buffer
	return json.Compact(&ca, a) == nil && json.Compact(&cb, b) == nil && bytes.Equal(ca.Bytes(), cb.Bytes())
}

// checkSeqs asserts evs carries seqs from, from+1, … and ends in a
// terminal event of type last.
func checkSeqs(t *testing.T, evs []serve.Event, from int64, last string) {
	t.Helper()
	if len(evs) == 0 {
		t.Fatalf("no events, want a stream from seq %d", from)
	}
	for i, ev := range evs {
		if ev.Seq != from+int64(i) {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, from+int64(i))
		}
	}
	if got := evs[len(evs)-1].Type; got != last {
		t.Fatalf("stream ends with %q, want %q", got, last)
	}
}

// TestHTTPContract pins the campaign HTTP surface both daemon modes
// serve, route for route: a client written against /campaigns drives
// /fleets by swapping the noun.
func TestHTTPContract(t *testing.T) {
	for _, s := range surfaces() {
		t.Run(s.noun, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "store")
			base, stop := s.start(t, dir)
			api := base + "/api/v1/" + s.noun
			spec := testSpec(6)
			want := singleBoxReport(t, spec)

			code, id, total := post(t, base, s.noun, "contract", spec)
			if code != http.StatusCreated || total != 6 {
				t.Fatalf("submit: %d, total %d; want 201, 6", code, total)
			}
			all := events(t, api+"/"+id+"/events")
			checkSeqs(t, all, 1, "done")
			if len(all) != total+1 || !sameJSON(all[total].Report, want) {
				t.Fatalf("%d events, want %d results + done carrying the report", len(all), total)
			}

			code, body := call(t, "GET", api, nil)
			var list map[string][]struct {
				ID               string
				Status           string
				Completed, Total int
			}
			if err := json.Unmarshal(body, &list); code != http.StatusOK || err != nil {
				t.Fatalf("list: %d %v: %s", code, err, body)
			}
			if l := list[s.noun]; len(l) != 1 || l[0].ID != id || l[0].Status != "done" ||
				l[0].Completed != total || l[0].Total != total {
				t.Fatalf("list = %s", body)
			}

			code, body = call(t, "GET", api+"/"+id, nil)
			var info struct {
				ID               string
				Status           string
				Completed, Total int
			}
			if err := json.Unmarshal(body, &info); code != http.StatusOK || err != nil ||
				info.ID != id || info.Status != "done" || info.Completed != total || info.Total != total {
				t.Fatalf("status: %d: %s", code, body)
			}

			code, body = call(t, "GET", api+"/"+id+"/cells", nil)
			var cells struct {
				ID    string                `json:"id"`
				Cells []campaign.CellReport `json:"cells"`
			}
			if err := json.Unmarshal(body, &cells); code != http.StatusOK || err != nil ||
				cells.ID != id || len(cells.Cells) != 1 || cells.Cells[0].Runs != total {
				t.Fatalf("cells: %d: %.300s", code, body)
			}

			for _, path := range []string{"/report", "/report.json"} {
				if code, body := call(t, "GET", api+"/"+id+path, nil); code != http.StatusOK || !bytes.Equal(body, want) {
					t.Fatalf("%s: %d, differs from the single-box report", path, code)
				}
			}
			code, body = call(t, "GET", api+"/"+id+"/report.csv", nil)
			if code != http.StatusOK || !strings.HasPrefix(string(body), "topology,regime,engine") ||
				strings.Count(strings.TrimSpace(string(body)), "\n") != 1 {
				t.Fatalf("report.csv: %d: %s", code, body)
			}

			// Resume mid-stream, and hostile negative cursors: the first
			// replays exactly the events after the cursor, the others the
			// whole stream.
			feed := api + "/" + id + "/events"
			checkSeqs(t, events(t, feed, "Last-Event-ID", "2"), 3, "done")
			checkSeqs(t, events(t, feed, "Last-Event-ID", "-1"), 1, "done")
			checkSeqs(t, events(t, feed+"?since=-5"), 1, "done")

			for _, req := range [][2]string{
				{"GET", ""}, {"GET", "/report"}, {"GET", "/report.json"}, {"GET", "/report.csv"},
				{"GET", "/cells"}, {"GET", "/events"}, {"DELETE", ""},
			} {
				if code, body := call(t, req[0], api+"/x999999"+req[1], nil); code != http.StatusNotFound {
					t.Fatalf("%s unknown%s: %d, want 404: %s", req[0], req[1], code, body)
				}
			}

			// Cancel a sweep too long to finish first: 202, and a repeat
			// while it is still cancelling is a conflict, not a second
			// acceptance.
			code, big, _ := post(t, base, s.noun, "canceller", testSpec(20000))
			if code != http.StatusCreated {
				t.Fatalf("submit: %d", code)
			}
			if code, body := call(t, "DELETE", api+"/"+big, nil); code != http.StatusAccepted {
				t.Fatalf("cancel: %d, want 202: %s", code, body)
			}
			if code, body := call(t, "DELETE", api+"/"+big, nil); code != http.StatusConflict {
				t.Fatalf("repeat cancel: %d, want 409: %s", code, body)
			}
			if evs := events(t, api+"/"+big+"/events"); evs[len(evs)-1].Type != "cancelled" {
				t.Fatalf("cancelled stream ends with %+v", evs[len(evs)-1])
			}
			if code, body := call(t, "DELETE", api+"/"+big, nil); code != http.StatusConflict {
				t.Fatalf("cancel after the end: %d, want 409: %s", code, body)
			}

			// After a restart, both sweeps are finished history the process
			// never saw: each feed is one terminal event synthesized from
			// the manifest, placed after the client's cursor.
			stop()
			base, stop = s.start(t, dir)
			defer stop()
			api = base + "/api/v1/" + s.noun
			evs := events(t, api+"/"+id+"/events", "Last-Event-ID", "3")
			if len(evs) != 1 || evs[0].Seq != 4 || evs[0].Type != "done" || !sameJSON(evs[0].Report, want) {
				t.Fatalf("after restart, done feed = %+v", evs)
			}
			evs = events(t, api+"/"+big+"/events")
			if len(evs) != 1 || evs[0].Seq != 1 || evs[0].Type != "cancelled" {
				t.Fatalf("after restart, cancelled feed = %+v", evs)
			}
			code, body = call(t, "GET", api+"/"+id, nil)
			if err := json.Unmarshal(body, &info); code != http.StatusOK || err != nil ||
				info.Status != "done" || info.Completed != total || info.Total != total {
				t.Fatalf("status after restart: %d: %s", code, body)
			}
		})
	}
}

// TestSubmitOversizedSpec sends a spec whose grid is far too large to
// build: it must be refused with 400, and must not cost its client an
// admission slot — the same client's next, valid submit is admitted.
func TestSubmitOversizedSpec(t *testing.T) {
	huge := map[string]any{
		"topologies": []string{"ring"}, "regimes": []string{"quiescent"}, "engines": []string{"sim"},
		"seed_start": 1, "seeds": 1 << 30, "repeats": 1 << 30,
	}
	overflow := map[string]any{
		"topologies": []string{"ring"}, "regimes": []string{"quiescent"}, "engines": []string{"sim"},
		"seed_start": int64(1<<63 - 2), "seeds": 4, "repeats": 1,
	}
	for _, s := range surfaces() {
		t.Run(s.noun, func(t *testing.T) {
			base, stop := s.start(t, filepath.Join(t.TempDir(), "store"))
			defer stop()
			for _, spec := range []any{huge, overflow} {
				if code, _, _ := post(t, base, s.noun, "greedy", spec); code != http.StatusBadRequest {
					t.Fatalf("oversized submit: %d, want 400", code)
				}
			}
			code, id, _ := post(t, base, s.noun, "greedy", testSpec(2))
			if code != http.StatusCreated {
				t.Fatalf("valid submit after the refusals: %d, want 201", code)
			}
			checkSeqs(t, events(t, base+"/api/v1/"+s.noun+"/"+id+"/events"), 1, "done")
		})
	}
}

// TestFleetRetiredAfterFinish checks that a finished fleet leaves the
// coordinator's live table while its merged feed stays replayable: every
// event exactly once from Last-Event-ID 0.
func TestFleetRetiredAfterFinish(t *testing.T) {
	_, w := newWorker(t, nil)
	co, err := NewCoordinator(filepath.Join(t.TempDir(), "coord"), Config{
		Workers: []string{w.URL}, Shards: 2, Logger: discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Shutdown)
	ts := httptest.NewServer(NewServer(co).Handler())
	t.Cleanup(ts.Close)

	code, id, total := post(t, ts.URL, "fleets", "retiree", testSpec(8))
	if code != http.StatusCreated {
		t.Fatalf("submit: %d", code)
	}
	deadline := time.Now().Add(60 * time.Second)
	for co.Fleet(id) != nil {
		if time.Now().After(deadline) {
			t.Fatalf("fleet %s still in the live table after it finished", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
	evs := events(t, ts.URL+"/api/v1/fleets/"+id+"/events", "Last-Event-ID", "0")
	checkSeqs(t, evs, 1, "done")
	seen := map[campaign.Job]bool{}
	for _, ev := range evs[:len(evs)-1] {
		if ev.Type != "result" || ev.Job == nil || seen[*ev.Job] {
			t.Fatalf("replayed event %+v is not a new result", ev)
		}
		seen[*ev.Job] = true
	}
	if len(seen) != total {
		t.Fatalf("replay carried %d results, want %d", len(seen), total)
	}
}
