package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"cliffedge"
	"cliffedge/internal/campaign"
	"cliffedge/internal/obs"
	"cliffedge/internal/store"
)

// Backend is what a daemon mode plugs into the campaign HTTP surface:
// how a sweep is admitted, cancelled and found while it runs, and what
// the mode adds to the status documents. cliffedged's Server is one
// backend; the fleet coordinator, whose fleets are sweeps too, is the
// other.
type Backend interface {
	// Submit admits, creates and starts a sweep of spec for client. An
	// admission refusal answers 429, any other error 400; extra fields
	// join the 201 document.
	Submit(spec cliffedge.CampaignSpec, client string) (sw *Sweep, extra map[string]any, err error)
	// Cancel asks a running sweep to stop. It reports false when the
	// sweep is not running or is already cancelling.
	Cancel(id string) bool
	// Sweep returns the running sweep with this ID, nil once it ended.
	Sweep(id string) *Sweep
	// Describe adds the mode's fields to a status document; detail is
	// set on the single-sweep view, clear in lists.
	Describe(info *Info, detail bool)
	// Health returns the mode's fields of the /healthz document.
	Health() map[string]any
}

// errBusy marks a submission refused by admission control (HTTP 429).
var errBusy = errors.New("admission limit reached")

// historyLimit bounds how many finished sweeps keep their event streams
// in memory.
const historyLimit = 64

// Surface is the campaign HTTP API under /api/v1/<noun>: REST submission
// and lifecycle, status documents, reports, the raw result log and SSE
// progress streams, over one store and one Backend. Its routes are the
// same for every noun, so a client written for one box drives a fleet by
// swapping /campaigns for /fleets, and the route patterns label the
// cliffedge_http_* metrics.
type Surface struct {
	noun    string // URL segment and list key: "campaigns" or "fleets"
	one     string // singular, for error messages
	st      *store.Store
	b       Backend
	started time.Time

	// history retains the full event stream of recently finished sweeps
	// (bounded FIFO), so a subscriber that arrives after — or reconnects
	// across — completion still replays every event exactly once. Sweeps
	// finished before the last restart stream a single synthesized
	// terminal event instead.
	mu      sync.Mutex
	history map[string][]Event
	order   []string
}

// NewSurface serves the sweeps of st under /api/v1/<noun>. Lists show
// the manifests whose IDs start with the noun's initial — c%06d
// campaigns, f%06d fleets — so the two modes may share a store.
func NewSurface(noun string, st *store.Store, b Backend) *Surface {
	return &Surface{
		noun: noun, one: strings.TrimSuffix(noun, "s"), st: st, b: b,
		started: time.Now(), history: make(map[string][]Event),
	}
}

// Retire keeps a finished sweep's event stream for late subscribers. A
// backend calls it after the sweep's terminal event and before Sweep
// stops returning it, so every subscriber finds the stream in one place
// or the other.
func (s *Surface) Retire(sw *Sweep) {
	evs, _ := sw.EventsSince(0)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.history[sw.ID] = evs
	s.order = append(s.order, sw.ID)
	if len(s.order) > historyLimit {
		delete(s.history, s.order[0])
		s.order = s.order[1:]
	}
}

// Handler returns the routes, wrapped in the per-route request
// counter/latency middleware. /healthz answers 200 to any probe that only
// reads the status code, and carries the JSON status document for anyone
// who reads the body; /metrics is the Prometheus scrape endpoint of the
// whole process (every instrumented layer, not just this surface).
func (s *Surface) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", obs.Handler())
	p := "/api/v1/" + s.noun
	mux.HandleFunc("POST "+p, s.handleSubmit)
	mux.HandleFunc("GET "+p, s.handleList)
	mux.HandleFunc("GET "+p+"/{id}", s.handleStatus)
	mux.HandleFunc("DELETE "+p+"/{id}", s.handleCancel)
	mux.HandleFunc("GET "+p+"/{id}/events", s.handleEvents)
	mux.HandleFunc("GET "+p+"/{id}/cells", s.handleCells)
	mux.HandleFunc("GET "+p+"/{id}/results", s.handleResults)
	mux.HandleFunc("GET "+p+"/{id}/report", s.handleReportJSON)
	mux.HandleFunc("GET "+p+"/{id}/report.json", s.handleReportJSON)
	mux.HandleFunc("GET "+p+"/{id}/report.csv", s.handleReportCSV)
	return obs.InstrumentHTTP(mux)
}

// handleHealthz serves the JSON status document: uptime, build info and
// the backend's occupancy figures.
func (s *Surface) handleHealthz(w http.ResponseWriter, r *http.Request) {
	doc := map[string]any{
		"status":         "ok",
		"uptime_seconds": int64(time.Since(s.started).Seconds()),
		"build":          obs.BuildInfo(),
	}
	maps.Copy(doc, s.b.Health())
	writeJSON(w, http.StatusOK, doc)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// clientID identifies the submitting client for fair admission: the
// X-Client-ID header when present, else the connection's host address.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// Info is the status document of one campaign or fleet. Failure and
// Shards are the fleet's: why leasing gave up, and the shard table (on
// the single-fleet view only).
type Info struct {
	ID        string    `json:"id"`
	Client    string    `json:"client,omitempty"`
	Created   time.Time `json:"created"`
	Status    string    `json:"status"`
	Completed int       `json:"completed"`
	Total     int       `json:"total"`
	Failure   string    `json:"failure,omitempty"`
	Shards    any       `json:"shards,omitempty"`
}

func (s *Surface) info(m store.Manifest, detail bool) Info {
	info := Info{ID: m.ID, Client: m.Client, Created: m.Created, Status: m.Status}
	if sw := s.b.Sweep(m.ID); sw != nil {
		info.Completed, info.Total = sw.Completed(), sw.Total()
	} else if m.Status == store.StatusDone {
		// Finished sweeps completed their whole grid by definition; count
		// it from the spec rather than reopening the log.
		var spec cliffedge.CampaignSpec
		if json.Unmarshal(m.Spec, &spec) == nil {
			if camp, err := cliffedge.NewCampaignFromSpec(spec); err == nil {
				info.Total = camp.NumJobs()
				info.Completed = info.Total
			}
		}
	}
	s.b.Describe(&info, detail)
	return info
}

func (s *Surface) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec cliffedge.CampaignSpec
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	sw, extra, err := s.b.Submit(spec, clientID(r))
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, errBusy) {
			code = http.StatusTooManyRequests
		}
		httpError(w, code, "%v", err)
		return
	}
	doc := map[string]any{"id": sw.ID, "status": store.StatusRunning, "total": sw.Total()}
	maps.Copy(doc, extra)
	writeJSON(w, http.StatusCreated, doc)
}

func (s *Surface) handleList(w http.ResponseWriter, r *http.Request) {
	manifests, err := s.st.List()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	infos := make([]Info, 0, len(manifests))
	for _, m := range manifests {
		if strings.HasPrefix(m.ID, s.noun[:1]) {
			infos = append(infos, s.info(m, false))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{s.noun: infos})
}

func (s *Surface) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	m, err := s.st.Manifest(id)
	if err != nil {
		httpError(w, http.StatusNotFound, "no %s %q", s.one, id)
		return
	}
	writeJSON(w, http.StatusOK, s.info(m, true))
}

func (s *Surface) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.b.Cancel(id) {
		writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "status": "cancelling"})
		return
	}
	if _, err := s.st.Manifest(id); err != nil {
		httpError(w, http.StatusNotFound, "no %s %q", s.one, id)
		return
	}
	httpError(w, http.StatusConflict, "%s %q is not running", s.one, id)
}

func (s *Surface) handleReportJSON(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if data, err := s.st.Report(id); err == nil {
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
		return
	}
	sw := s.b.Sweep(id)
	if sw == nil {
		httpError(w, http.StatusNotFound, "no report for %s %q", s.one, id)
		return
	}
	// Running sweep: a partial snapshot over everything committed so far.
	w.Header().Set("Content-Type", "application/json")
	sw.Report().WriteJSON(w)
}

func (s *Surface) handleReportCSV(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rep, err := s.loadReport(id)
	if err != nil {
		httpError(w, http.StatusNotFound, "no report for %s %q", s.one, id)
		return
	}
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	rep.WriteCSV(w)
}

// loadReport materialises the sweep's report: the persisted one for
// finished sweeps (decoded — the Hist JSON codec makes that lossless), a
// live snapshot for running ones.
func (s *Surface) loadReport(id string) (*campaign.Report, error) {
	if data, err := s.st.Report(id); err == nil {
		var rep campaign.Report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, err
		}
		return &rep, nil
	}
	sw := s.b.Sweep(id)
	if sw == nil {
		return nil, fmt.Errorf("no report")
	}
	return sw.Report(), nil
}

// handleCells serves the per-cell reports — the full report's Cells and
// Totals sections without the locality fit. For a running sweep this is a
// live partial over everything committed so far (the aggregator maintains
// the cell statistics online, so the snapshot is free); for a finished one
// it is the persisted report's cell table. Dashboards poll it to watch a
// sweep converge cell by cell.
func (s *Surface) handleCells(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rep, err := s.loadReport(id)
	if err != nil {
		httpError(w, http.StatusNotFound, "no %s %q", s.one, id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id": id, "cells": rep.Cells, "totals": rep.Totals,
	})
}

// handleResults serves the sweep's raw result log — the CRC32-framed
// segment file, byte for byte. A worker's log is the fleet coordinator's
// merge feed: the framing makes the transfer self-validating (a torn
// tail, or a response truncated by a dying connection, decodes to a clean
// prefix on the client), and records stream without re-encoding. Reading
// while the sweep is appending is safe for the same reason: appends are
// single write calls, so the snapshot ends in at most one partial frame.
func (s *Surface) handleResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	path, err := s.st.File(id, "results.log")
	if err != nil {
		httpError(w, http.StatusNotFound, "no %s %q", s.one, id)
		return
	}
	f, err := os.Open(path)
	if err != nil {
		httpError(w, http.StatusNotFound, "no results for %s %q", s.one, id)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	io.Copy(w, f)
}

// handleEvents streams the sweep's progress feed. Seqs are dense and
// stable across restarts, so a client reconnecting with Last-Event-ID (or
// ?since=) resumes exactly after its cursor.
func (s *Surface) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	var since int64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		since, _ = strconv.ParseInt(v, 10, 64)
	} else if v := r.URL.Query().Get("since"); v != "" {
		since, _ = strconv.ParseInt(v, 10, 64)
	}
	if since < 0 { // unparseable or hostile cursors read from the start
		since = 0
	}
	if since > 0 {
		mSSEReplays.Inc()
	}
	mSSESubscribers.Add(1)
	defer mSSESubscribers.Add(-1)

	// Live first, then history: Retire fills the history before the
	// backend drops the sweep, so one of the two lookups finds it.
	sw := s.b.Sweep(id)
	if sw == nil {
		s.mu.Lock()
		hist, inHistory := s.history[id]
		s.mu.Unlock()
		if !inHistory {
			// Unknown, or finished before the last restart: stream the
			// terminal state from the manifest (or 404).
			m, err := s.st.Manifest(id)
			if err != nil {
				httpError(w, http.StatusNotFound, "no %s %q", s.one, id)
				return
			}
			hist = []Event{{Seq: since + 1, Type: m.Status}}
			if m.Status == store.StatusDone {
				if data, err := s.st.Report(id); err == nil {
					hist[0].Report = data
				}
			}
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		for _, ev := range hist {
			if ev.Seq <= since {
				continue
			}
			if err := writeSSE(w, ev); err != nil {
				return
			}
		}
		flusher.Flush()
		return
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	ctx := r.Context()
	for {
		events, wake := sw.EventsSince(since)
		for _, ev := range events {
			if err := writeSSE(w, ev); err != nil {
				return
			}
			since = ev.Seq
			if ev.Terminal() {
				flusher.Flush()
				return
			}
		}
		flusher.Flush()
		select {
		case <-wake:
		case <-ctx.Done():
			return
		}
	}
}

// writeSSE frames one event: the seq as the SSE id (reconnect cursor),
// the type as the SSE event name, the JSON document as data.
func writeSSE(w io.Writer, ev Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
	return err
}
