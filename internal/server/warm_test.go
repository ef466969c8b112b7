package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// warmHandler returns a daemon whose memo holds SP under apres, the request
// that hits it, and the size of its answer.
func warmHandler(tb testing.TB) (*Server, func() *http.Request, int) {
	tb.Helper()
	s, _ := newTestServer(tb, tb.TempDir(), 0)
	body := []byte(`{"workload":"SP","config":"apres"}`)
	request := func() *http.Request {
		return httptest.NewRequest("POST", "/v1/simulate", bytes.NewReader(body))
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, request())
	if rec.Code != http.StatusOK {
		tb.Fatalf("warming request: status %d: %s", rec.Code, rec.Body)
	}
	return s, request, rec.Body.Len()
}

// TestWarmPathAllocBudget pins what the memo-hit handler may allocate:
// decoding the request, the Runner's hit, and an encode into pooled buffers.
// An indent pass through a fresh buffer, a second copy of the body or a
// workload table built per request shows here first. (The recorder's own
// buffer growth is inside the count.)
func TestWarmPathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s, request, _ := warmHandler(t)
	const budget = 60
	got := testing.AllocsPerRun(200, func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, request())
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"cached": true`) {
			t.Fatalf("not a memo hit: status %d", rec.Code)
		}
	})
	t.Logf("memo-hit handler: %.0f allocs", got)
	if got > budget {
		t.Errorf("memo-hit handler: %.0f allocs, budget %d", got, budget)
	}
}

func BenchmarkHandlerMemoHit(b *testing.B) {
	s, request, size := warmHandler(b)
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, request())
		if rec.Code != http.StatusOK {
			b.Fatal(rec.Code)
		}
	}
}
