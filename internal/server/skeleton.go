package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// maxBodyBytes bounds request bodies; config JSON is tiny, but inline
// specs may carry recorded trace records, so allow a few MB.
const maxBodyBytes = 4 << 20

// Skeleton is the HTTP serving skeleton the worker daemon and the cluster
// coordinator share: routes that count their finished requests by endpoint
// and status, one JSON encoder, and Serve with a readiness-first drain. A
// server embeds it and registers its handlers with Handle; what the two
// daemons answer differs, how they serve does not.
type Skeleton struct {
	mux *http.ServeMux

	// draining flips once Serve begins its graceful shutdown, so /healthz
	// can answer 503 and load balancers and cluster coordinators stop
	// routing here before the drain completes.
	draining atomic.Bool

	mu       sync.Mutex
	requests map[requestKey]int64
}

// requestKey labels one series of the finished-request counter.
type requestKey struct {
	endpoint string
	code     int
}

// NewSkeleton returns a skeleton with no routes.
func NewSkeleton() *Skeleton {
	return &Skeleton{mux: http.NewServeMux(), requests: make(map[requestKey]int64)}
}

// statusWriter captures the response code for the request counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(c int) {
	w.code = c
	w.ResponseWriter.WriteHeader(c)
}

// Handle registers h under a ServeMux pattern, counting every finished
// request under the endpoint label and its status code.
func (k *Skeleton) Handle(pattern, endpoint string, h http.HandlerFunc) {
	k.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		k.mu.Lock()
		k.requests[requestKey{endpoint, sw.code}]++
		k.mu.Unlock()
	})
}

func (k *Skeleton) ServeHTTP(w http.ResponseWriter, r *http.Request) { k.mux.ServeHTTP(w, r) }

// Draining reports whether Serve has begun its graceful shutdown.
func (k *Skeleton) Draining() bool { return k.draining.Load() }

// WriteRequests writes the finished-request counter as the family name,
// series sorted by endpoint, then status code.
func (k *Skeleton) WriteRequests(e *Exposition, name string) {
	k.mu.Lock()
	defer k.mu.Unlock()
	keys := make([]requestKey, 0, len(k.requests))
	for key := range k.requests {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].endpoint != keys[j].endpoint {
			return keys[i].endpoint < keys[j].endpoint
		}
		return keys[i].code < keys[j].code
	})
	e.Family(name, "counter", "Finished HTTP requests by endpoint and status code.")
	for _, key := range keys {
		e.Sample(k.requests[key], "endpoint", key.endpoint, "code", strconv.Itoa(key.code))
	}
}

// Serve accepts connections on l until ctx is cancelled (cmd/apresd wires
// SIGTERM/SIGINT to that), then drains: in-flight requests — including
// running simulations — complete before Serve returns, bounded by drain
// (0 = wait indefinitely). Returns nil on a clean drain.
func (k *Skeleton) Serve(ctx context.Context, l net.Listener, drain time.Duration) error {
	hs := &http.Server{Handler: k}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Readiness goes first: /healthz answers 503 from here on, so a load
	// balancer (or cluster coordinator) probing during the drain stops
	// sending new work before the listener disappears.
	k.draining.Store(true)
	sctx := context.Background()
	if drain > 0 {
		var cancel context.CancelFunc
		sctx, cancel = context.WithTimeout(sctx, drain)
		defer cancel()
	}
	return hs.Shutdown(sctx)
}

// ListenAndServe is Serve over a fresh TCP listener on addr.
func (k *Skeleton) ListenAndServe(ctx context.Context, addr string, drain time.Duration) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return k.Serve(ctx, l, drain)
}

// WriteJSON answers with v as indented JSON. Every JSON body either daemon
// sends goes through here, which is what makes a coordinator's merged sweep
// byte-identical to a single worker's. The body is what encoding/json's own
// Encoder writes when told to indent by two spaces; it is built in a pooled
// buffer and sent in one Write. No Content-Length is set: net/http frames the
// body, and a body beyond its write buffer then ends only once the handler
// has returned, which is what lets a client-side span enclose the handler's
// (bench's traced serve_mixed run checks that). A value that cannot be
// encoded is answered 500.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	b := bodyPool.Get().(*body)
	defer bodyPool.Put(b)
	b.compact.Reset()
	if err := json.NewEncoder(&b.compact).Encode(v); err != nil {
		code = http.StatusInternalServerError
		b.compact.Reset()
		_ = json.NewEncoder(&b.compact).Encode(apiError{Error: "encoding response: " + err.Error()})
	}
	b.indented = appendIndent(b.indented[:0], b.compact.Bytes())
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(b.indented) // a failed write means the client went away
}

// body is the scratch space of one WriteJSON call.
type body struct {
	compact  bytes.Buffer
	indented []byte
}

var bodyPool = sync.Pool{New: func() any { return new(body) }}

// appendIndent appends to dst the compact JSON text src indented by two
// spaces per level, byte for byte what json.Indent(dst, src, "", "  ")
// produces. It is a single pass that tracks only whether it is inside a
// string, because src is trusted: it is encoding/json's own output, so it is
// valid, has no whitespace between tokens, and escapes every quote and
// backslash inside a string with a backslash. Bytes after the top-level
// value (the Encoder's newline) are copied through.
func appendIndent(dst, src []byte) []byte {
	depth := 0
	// opened delays the line break after '{' or '[' by one byte, so that
	// empty objects and arrays stay "{}" and "[]".
	opened := false
	for i := 0; i < len(src); i++ {
		c := src[i]
		if opened && c != '}' && c != ']' {
			depth++
			dst = appendNewline(dst, depth)
		}
		switch c {
		case '"':
			j := i + 1
			for src[j] != '"' {
				if src[j] == '\\' {
					j++
				}
				j++
			}
			dst = append(dst, src[i:j+1]...)
			i = j
		case '{', '[':
			dst = append(dst, c)
			opened = true
			continue
		case ',':
			dst = append(dst, c)
			dst = appendNewline(dst, depth)
		case ':':
			dst = append(dst, ':', ' ')
		case '}', ']':
			if !opened {
				depth--
				dst = appendNewline(dst, depth)
			}
			dst = append(dst, c)
		default:
			dst = append(dst, c)
		}
		opened = false
	}
	return dst
}

func appendNewline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for ; depth > 0; depth-- {
		dst = append(dst, ' ', ' ')
	}
	return dst
}

type apiError struct {
	Error string `json:"error"`
}

// WriteError answers with a JSON error body.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// DecodeBody reads a bounded JSON request body into v. A malformed or
// oversized body, or one with anything but whitespace after its JSON value,
// is answered 400 and reported false.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(v); err != nil {
		WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("unexpected data after the JSON value")
		}
		WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}
