package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cliffedge/internal/serve"
)

// httpClient is shared by every client goroutine. Keep-alive is on, as a
// real client library would have it.
var httpClient = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}

// listener serves one handler on a loopback address until stop. Binding
// and serving are separate steps, so a peer can be given the address
// before the handler behind it exists.
type listener struct {
	URL  string
	ln   net.Listener
	hs   *http.Server
	done chan struct{} // nil until serve
}

func bind(addr string) (*listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &listener{URL: "http://" + ln.Addr().String(), ln: ln, hs: &http.Server{}}, nil
}

func (l *listener) serve(h http.Handler) {
	l.hs.Handler = h
	l.done = make(chan struct{})
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(l.ln) // returns http.ErrServerClosed after stop
	}()
}

func listen(h http.Handler, addr string) (*listener, error) {
	l, err := bind(addr)
	if err != nil {
		return nil, err
	}
	l.serve(h)
	return l, nil
}

// stop closes the listener and every connection at once, then waits for
// Serve to return. The benchmark's clients have finished by then; what
// remains is traffic between the processes being stopped, such as a
// coordinator's connection to a worker, which a graceful Shutdown would
// wait out for seconds.
func (l *listener) stop() {
	if l.done == nil {
		l.ln.Close()
		return
	}
	l.hs.Close()
	<-l.done
}

// waitHealthy polls GET /healthz until it answers 200.
func waitHealthy(base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := httpClient.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz did not answer 200: %v", base, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// submission is one campaign or fleet as a client sees it.
type submission struct {
	start, submitted, firstResult, done, reported time.Time

	id      string
	total   int
	results int // result events seen
	errored int // result events carrying a run error
	report  []byte
}

// latency is the client's wait from POST to the report in hand.
func (s *submission) latency() float64 { return s.reported.Sub(s.start).Seconds() }

// submit POSTs spec to base+path, follows the id's SSE feed to its done
// event and fetches report.json: the whole cycle a client waits for.
func submit(base, path, clientID string, spec any) (*submission, error) {
	s := &submission{start: time.Now()}
	if err := s.post(base, path, clientID, spec, nil); err != nil {
		return nil, err
	}
	report, err := get(base + path + "/" + s.id + "/report.json")
	if err != nil {
		return nil, err
	}
	s.report, s.reported = report, time.Now()
	return s, nil
}

// get fetches url's body, which must come with 200 OK.
func get(url string) ([]byte, error) {
	resp, err := httpClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// post POSTs spec to base+path and follows the new campaign's SSE feed
// until its done event or, when until is non-nil, the result event for
// which until returns true.
func (s *submission) post(base, path, clientID string, spec any, until func(serve.Event) bool) error {
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client-ID", clientID)
	resp, err := httpClient.Do(req)
	if err != nil {
		return err
	}
	var created struct {
		ID    string `json:"id"`
		Total int    `json:"total"`
	}
	err = json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("POST %s: %s", path, resp.Status)
	}
	if err != nil {
		return fmt.Errorf("POST %s: %w", path, err)
	}
	s.submitted, s.id, s.total = time.Now(), created.ID, created.Total
	return s.follow(base+path+"/"+s.id+"/events", until)
}

// follow reads an SSE progress feed until its terminal event or, when
// until is non-nil, the result event for which until returns true.
func (s *submission) follow(url string, until func(serve.Event) bool) error {
	resp, err := httpClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 16<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev serve.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return fmt.Errorf("SSE event: %w", err)
		}
		switch ev.Type {
		case "result":
			if s.results == 0 {
				s.firstResult = time.Now()
			}
			s.results++
			if ev.Err != "" {
				s.errored++
			}
			if until != nil && until(ev) {
				return nil
			}
		case "done":
			s.done = time.Now()
			return nil
		case "cancelled":
			return errors.New("campaign was cancelled")
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return errors.New("event stream ended before done")
}

// spans records the submission's client-side spans under one trace ID:
// submit, then first result, then done, then the report fetch.
func (s *submission) spans(t *tracer, traceID string) {
	root := t.span(traceID, "campaign", 0, s.start, s.reported)
	t.span(traceID, "submit", root, s.start, s.submitted)
	t.span(traceID, "first_result", root, s.submitted, s.firstResult)
	t.span(traceID, "done", root, s.firstResult, s.done)
	t.span(traceID, "report", root, s.done, s.reported)
}

// copyDir copies a store directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
