package obs

import (
	"os"
	"strconv"
)

// Options are the observability knobs shared by every daemon. Flags default
// from the environment (OptionsFromEnv), read once at startup:
//
//	GAVEL_OBS_LISTEN  default for -obs-listen (e.g. "127.0.0.1:9090"; empty = off)
//	GAVEL_OBS_TRACE   default for -obs-trace (JSONL span log path; empty = ring only)
//	GAVEL_OBS_RING    trace ring capacity in spans (default 4096)
type Options struct {
	Listen    string
	TracePath string
	RingSpans int
}

// OptionsFromEnv reads the GAVEL_OBS_* environment knobs.
func OptionsFromEnv() Options {
	o := Options{
		Listen:    os.Getenv("GAVEL_OBS_LISTEN"),
		TracePath: os.Getenv("GAVEL_OBS_TRACE"),
		RingSpans: DefaultRingSpans,
	}
	if v := os.Getenv("GAVEL_OBS_RING"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			o.RingSpans = n
		}
	}
	return o
}

// Enabled reports whether any telemetry output is requested.
func (o Options) Enabled() bool { return o.Listen != "" || o.TracePath != "" }

// Build constructs the plane, JSONL sink, and HTTP server the options
// describe. Returns (nil, nil, nil) when disabled. The caller owns closing
// both returned values; the *os.File may be nil when only -obs-listen is
// set.
func (o Options) Build() (*Plane, *Server, *os.File, error) {
	if !o.Enabled() {
		return nil, nil, nil, nil
	}
	p := &Plane{Reg: NewRegistry(), Tr: NewTracer(o.RingSpans)}
	var f *os.File
	if o.TracePath != "" {
		var err error
		f, err = os.OpenFile(o.TracePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, nil, err
		}
		p.Tr.SetWriter(f)
	}
	var srv *Server
	if o.Listen != "" {
		srv = NewServer(p)
		if _, err := srv.Serve(o.Listen); err != nil {
			if f != nil {
				f.Close()
			}
			return nil, nil, nil, err
		}
	}
	RegisterRuntimeMetrics(p.Reg)
	return p, srv, f, nil
}
