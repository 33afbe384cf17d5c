package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"multicube/internal/farm"
)

// submit posts the same small job n times back to back from one client
// address and counts the 429s.
func submit(t *testing.T, args []string, n int) (rejected int) {
	t.Helper()
	cfg, _, _ := serveConfig(args)
	srv, err := farm.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Close(ctx)
	}()
	for i := 0; i < n; i++ {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"kind":"mc","mc":{"preset":"litmus-corr"}}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK, http.StatusAccepted:
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Fatalf("submission %d: status %d", i, resp.StatusCode)
		}
	}
	return rejected
}

// TestRateZeroDisablesLimiting: `serve -rate 0` is documented as "0
// disables limiting", so 200 back-to-back submissions from one address
// must all be admitted — where the default rate, with the same burst,
// refuses most of them.
func TestRateZeroDisablesLimiting(t *testing.T) {
	if rejected := submit(t, []string{"-rate", "0", "-burst", "10"}, 200); rejected != 0 {
		t.Fatalf("-rate 0: %d of 200 submissions got a 429", rejected)
	}
	if rejected := submit(t, []string{"-burst", "10"}, 200); rejected == 0 {
		t.Fatal("the default rate admitted 200 back-to-back submissions on a burst of 10: the limiter is not on this path")
	}
}
