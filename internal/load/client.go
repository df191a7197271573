// Package load is the mixed-workload SLO harness: a closed+open-loop
// driver that plays a configurable mix of cheap kernel reads, sparse
// expensive centrality requests and streaming ingest against a running
// graphctd, recording per-class latency quantiles and status rates. The
// paper's premise is interactive analysis of a Twitter-scale graph under
// continuous update; graphctd's TestLanesProtectCheapReads drives this
// package against the real binary to prove the serving path holds latency
// SLOs when those workloads contend.
//
// The package also owns the shared HTTP client conventions — jittered
// exponential backoff, idempotent batch posting — that cmd/tweetgen and
// the benchmark's live workload use.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	neturl "net/url"
	"time"

	"graphct/internal/api"
	"graphct/internal/stream"
)

// RetryableStatus reports whether a response warrants a retry: 429 is
// backpressure, 5xx is a transient server failure (an idempotent batch ID
// makes the retry safe either way).
func RetryableStatus(code int) bool {
	return code == http.StatusTooManyRequests || code >= 500
}

// MaxAttempts bounds retries of server failures; backpressure (429)
// retries indefinitely — the server is healthy, just busy.
const MaxAttempts = 10

// WithRetry runs send until it returns a non-retryable status, applying
// jittered exponential backoff (10ms doubling to a 1s cap, ±50% jitter so
// synchronized clients do not re-converge on the same instant).
func WithRetry(rng *rand.Rand, send func() (int, error)) error {
	backoff := 10 * time.Millisecond
	for attempt := 1; ; attempt++ {
		code, err := send()
		if err != nil {
			return err
		}
		if !RetryableStatus(code) {
			return nil
		}
		if code >= 500 && attempt >= MaxAttempts {
			return fmt.Errorf("giving up after %d attempts (last status %d)", attempt, code)
		}
		jitter := 0.5 + rng.Float64() // uniform in [0.5, 1.5)
		time.Sleep(time.Duration(float64(backoff) * jitter))
		if backoff < time.Second {
			backoff *= 2
		}
	}
}

// IngestReply is the body of a successful ingest response.
type IngestReply struct {
	Accepted    int    `json:"accepted"`
	Edges       int64  `json:"edges"`
	Epoch       uint64 `json:"epoch"`
	Snapshotted bool   `json:"snapshotted"`
}

// EncodeBatch marshals a batch for the ingest endpoint, in the compact
// GCTU binary framing (the default) or as JSON, returning the content
// type to post with.
func EncodeBatch(batch []stream.Update, binary bool) (*bytes.Buffer, string, error) {
	var buf bytes.Buffer
	if binary {
		if err := stream.EncodeUpdates(&buf, batch); err != nil {
			return nil, "", err
		}
		return &buf, stream.WireContentType, nil
	}
	type ju struct {
		U    int32 `json:"u"`
		V    int32 `json:"v"`
		Time int64 `json:"time,omitempty"`
		Del  bool  `json:"del,omitempty"`
	}
	out := make([]ju, len(batch))
	for i, up := range batch {
		out[i] = ju{U: up.U, V: up.V, Time: up.Time, Del: up.Del}
	}
	if err := json.NewEncoder(&buf).Encode(out); err != nil {
		return nil, "", err
	}
	return &buf, "application/json", nil
}

// PostBatch sends one ingest batch under a client-assigned batch ID,
// retrying 429 (backpressure) and 5xx (server failure) with jittered
// exponential backoff. The ID lets the server dedupe a retry of a batch
// it actually applied before failing, so retries never double-apply.
func PostBatch(base, name, batchID string, batch []stream.Update, binary bool, rng *rand.Rand) (IngestReply, error) {
	buf, contentType, err := EncodeBatch(batch, binary)
	if err != nil {
		return IngestReply{}, err
	}
	url := base + "/graphs/" + name + "/ingest?batch_id=" + neturl.QueryEscape(batchID)
	var rep IngestReply
	err = WithRetry(rng, func() (int, error) {
		resp, err := http.Post(url, contentType, bytes.NewReader(buf.Bytes()))
		if err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusOK {
			code := resp.StatusCode
			err := Drain(resp, http.StatusOK)
			if RetryableStatus(code) {
				return code, nil
			}
			return code, fmt.Errorf("ingest: %w", err)
		}
		err = json.NewDecoder(resp.Body).Decode(&rep)
		DrainBody(resp)
		return http.StatusOK, err
	})
	return rep, err
}

// Drain consumes and closes resp's body, returning an error carrying the
// server's JSON error message unless the status matches want.
func Drain(resp *http.Response, want int) error {
	defer DrainBody(resp)
	if resp.StatusCode == want {
		return nil
	}
	body, _ := io.ReadAll(resp.Body)
	return fmt.Errorf("HTTP %d: %s", resp.StatusCode, api.DecodeError(body))
}

// DrainBody consumes and closes resp's body so the transport can reuse
// the connection.
func DrainBody(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
}
