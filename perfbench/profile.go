package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"slices"
	"strings"
	"time"
)

// cpuSample is one CPU-profile stack, innermost frame first, with the CPU
// time it stands for.
type cpuSample struct {
	frames []string
	ns     int64
}

// readCPUProfile lists the stacks of the CPU profile at path, as the Go
// toolchain's pprof prints them with -traces.
func readCPUProfile(path string) ([]cpuSample, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-symbolize=none", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.Bytes())
	}
	return parseTraces(string(out))
}

// traceSeparator opens each sample in pprof -traces output.
const traceSeparator = "-----------+"

// parseTraces reads pprof -traces output: a header, then per sample a
// separator line, the sample's value and its innermost frame on one line,
// and each caller on a line of its own. Inlined frames are listed like
// any other, marked " (inline)".
func parseTraces(text string) ([]cpuSample, error) {
	var out []cpuSample
	var cur *cpuSample
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, traceSeparator) {
			out = append(out, cpuSample{})
			cur = &out[len(out)-1]
			continue
		}
		fields := strings.Fields(line)
		if cur == nil || len(fields) == 0 {
			continue // the header, or a blank line
		}
		if len(cur.frames) == 0 {
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("pprof -traces: bad sample line %q", line)
			}
			cur.ns, fields = int64(d), fields[1:]
		}
		cur.frames = append(cur.frames, fields[0])
	}
	if len(out) > 0 && len(out[len(out)-1].frames) == 0 {
		out = out[:len(out)-1] // the separator that closes the listing
	}
	for _, s := range out {
		if len(s.frames) == 0 {
			return nil, fmt.Errorf("pprof -traces: sample with no frames")
		}
	}
	return out, nil
}

// packageOf returns the import path of a profile function name such as
// "cliffedge/internal/sim.(*lane).dispatch" or "encoding/json.Unmarshal".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// moduleOf maps a function to the layer it belongs to, or "" for code
// outside the repository (the standard library and the runtime).
func moduleOf(fn string) string {
	pkg := packageOf(fn)
	switch {
	case pkg == "cliffedge":
		return "cliffedge"
	case pkg == "main" || strings.HasPrefix(pkg, "cliffedge/perfbench"):
		return "harness"
	case strings.HasPrefix(pkg, "cliffedge/internal/"):
		m, _, _ := strings.Cut(strings.TrimPrefix(pkg, "cliffedge/internal/"), "/")
		if slices.Contains(modules, m) {
			return m
		}
		return "other"
	}
	return ""
}

// attribute charges a stack to the layer of its innermost repository
// frame, so standard-library work (JSON decoding, hashing, allocation)
// counts against the module that asked for it. A stack with no
// repository frame is "http" if net/http is on it, else "other" (the
// runtime: GC workers, the scheduler).
func attribute(frames []string) string {
	http := false
	for _, f := range frames {
		if m := moduleOf(f); m != "" {
			return m
		}
		if strings.HasPrefix(packageOf(f), "net/http") {
			http = true
		}
	}
	if http {
		return "http"
	}
	return "other"
}

// cpuByModule sums a profile's CPU seconds per layer.
func cpuByModule(samples []cpuSample) map[string]float64 {
	out := map[string]float64{}
	for _, s := range samples {
		out[attribute(s.frames)] += float64(s.ns) / 1e9
	}
	return out
}
