package fleet

import (
	"net/http"

	"cliffedge"
	"cliffedge/internal/serve"
)

// Server is the coordinator's HTTP face: the worker's campaign surface,
// served under /api/v1/fleets — a fleet is a serve.Sweep fed by the
// merge — so clients written for one box drive a fleet by swapping
// /campaigns for /fleets. Server itself is only the serve.Backend glue.
type Server struct {
	co *Coordinator
}

// NewServer wraps a coordinator.
func NewServer(co *Coordinator) *Server { return &Server{co: co} }

// Handler returns the coordinator's routes.
func (s *Server) Handler() http.Handler { return s.co.surf.Handler() }

// Submit starts a fleet; the 201 document adds its shard count.
func (s *Server) Submit(spec cliffedge.CampaignSpec, client string) (*serve.Sweep, map[string]any, error) {
	f, err := s.co.Submit(spec, client)
	if err != nil {
		return nil, nil, err
	}
	return f.sw, map[string]any{"shards": len(f.Shards())}, nil
}

// Cancel stops a running fleet the first time it is asked.
func (s *Server) Cancel(id string) bool {
	f := s.co.Fleet(id)
	return f != nil && f.Cancel()
}

// Sweep returns a running fleet's merged sweep.
func (s *Server) Sweep(id string) *serve.Sweep {
	if f := s.co.Fleet(id); f != nil {
		return f.sw
	}
	return nil
}

// Describe adds a running fleet's failure and, on the single-fleet view,
// the shard table — read back from the store once the fleet has ended.
func (s *Server) Describe(info *serve.Info, detail bool) {
	if f := s.co.Fleet(info.ID); f != nil {
		info.Failure = f.Failure()
		if detail {
			info.Shards = f.Shards()
		}
	} else if detail {
		if shards, ok, _ := loadShards(s.co.st, info.ID); ok {
			info.Shards = shards
		}
	}
}

// Health reports fleet and worker-pool occupancy for /healthz.
func (s *Server) Health() map[string]any {
	s.co.wmu.Lock()
	defer s.co.wmu.Unlock()
	lost := 0
	for _, wk := range s.co.workers {
		if wk.lost {
			lost++
		}
	}
	return map[string]any{
		"active_fleets": mActiveFleets.Load(),
		"workers":       len(s.co.workers),
		"workers_lost":  lost,
	}
}
