package storage

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestOpenViewErrorPaths pins the -store dispatch failures down to
// operator-readable one-liners: a mistyped scheme is named as such
// (instead of the filesystem reporting ENOENT on "ftp://host" as a
// relative path), and an unreachable remote reports the root cause once
// — not the nested url.Error/net.OpError transport dump that repeats
// the URL per retry wrapper.
func TestOpenViewErrorPaths(t *testing.T) {
	// A URL that accepts no connections: bind, record the address, close.
	ts := httptest.NewServer(nil)
	deadURL := ts.URL
	ts.Close()

	cases := []struct {
		name  string
		store string
		want  []string // substrings the one-line error must carry
		ban   []string // substrings it must not
	}{
		{
			name:  "unsupported scheme",
			store: "ftp://archive.example.org/store",
			want:  []string{"ftp", "not supported", "http(s)"},
			ban:   []string{"no such file"},
		},
		{
			name:  "scheme-like typo",
			store: "htp://localhost:8344",
			want:  []string{"htp", "not supported"},
			ban:   []string{"no such file"},
		},
		{
			name:  "http URL with no host",
			store: "http://",
			want:  []string{"not an http(s) store URL"},
		},
		{
			name:  "unreachable remote",
			store: deadURL,
			want:  []string{"unreachable", "connection refused"},
			// The raw transport chain repeats the URL inside Get "...":
			// the condensed line must not.
			ban: []string{`Get "`, "dial tcp"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			if IsRemoteStore(tc.store) {
				// Route through the fast-retry options so the unreachable
				// case does not sleep through real backoff.
				_, err = OpenRemoteWith(tc.store, RemoteOptions{Backoff: time.Nanosecond})
			} else {
				_, err = OpenView(tc.store)
			}
			if err == nil {
				t.Fatalf("OpenView(%q) succeeded", tc.store)
			}
			msg := err.Error()
			if strings.Contains(msg, "\n") {
				t.Fatalf("error is not one line: %q", msg)
			}
			if n := strings.Count(msg, "storage:"); n > 1 {
				t.Fatalf("error stutters the package prefix %d times: %q", n, msg)
			}
			for _, w := range tc.want {
				if !strings.Contains(msg, w) {
					t.Errorf("error %q does not mention %q", msg, w)
				}
			}
			for _, b := range tc.ban {
				if strings.Contains(msg, b) {
					t.Errorf("error %q leaks %q", msg, b)
				}
			}
		})
	}

	// The dispatch itself (not the options route) also condenses the
	// unreachable case — the path every CLI takes. Default retries make
	// this slower, so assert on the shape only once.
	if _, err := OpenView("ftp://x"); err == nil {
		t.Fatal("OpenView dispatched an unsupported scheme")
	}
}
