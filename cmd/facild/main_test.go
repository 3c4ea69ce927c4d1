package main

import (
	"net/http"
	"testing"
	"time"
)

// TestNewHTTPServerTimeouts pins the server's read-side timeouts, and the
// absence of a write timeout that would cut GET /trace streams.
func TestNewHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer("localhost:0", http.NotFoundHandler())
	for name, c := range map[string]struct{ got, want time.Duration }{
		"ReadHeaderTimeout": {hs.ReadHeaderTimeout, readHeaderTimeout},
		"ReadTimeout":       {hs.ReadTimeout, readTimeout},
		"IdleTimeout":       {hs.IdleTimeout, idleTimeout},
	} {
		if c.got <= 0 || c.got != c.want {
			t.Errorf("%s = %v, want %v (> 0)", name, c.got, c.want)
		}
	}
	if hs.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want none (GET /trace streams)", hs.WriteTimeout)
	}
	if hs.Addr != "localhost:0" || hs.Handler == nil {
		t.Errorf("server addr %q, handler %v", hs.Addr, hs.Handler)
	}
}
