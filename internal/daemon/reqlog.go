package daemon

import (
	"encoding/json"
	"io"
	"log"
	"sync"
	"sync/atomic"
)

// reqLogEntry is one structured request-log line. Fields follow the
// ISSUE wire list: enough to reconstruct what a request was, how it was
// served and what it cost, without ever logging the graph itself.
type reqLogEntry struct {
	TS       string  `json:"ts"`
	Method   string  `json:"method"`
	Endpoint string  `json:"endpoint"`
	Status   int     `json:"status"`
	N        int     `json:"n,omitempty"`
	Width    string  `json:"width,omitempty"`
	Backend  string  `json:"backend,omitempty"`
	Cache    string  `json:"cache,omitempty"` // hit | miss | bypass | off
	Shard    int     `json:"shard"`           // -1 cache hit, -2 not solved
	Tier     string  `json:"tier"`
	Degraded bool    `json:"degraded,omitempty"`
	MS       float64 `json:"ms"`
}

// reqLogger emits head-sampled JSON request lines. The sampling
// decision is taken per request from a deterministic sequence counter
// (request seq % period), so a rate of 0.01 logs exactly every 100th
// request rather than a random subset — reproducible in tests and
// predictable in cost. rate <= 0 disables logging entirely; rate >= 1
// logs everything.
type reqLogger struct {
	mu     sync.Mutex
	w      io.Writer
	period int64
	seq    atomic.Int64
}

func newReqLogger(w io.Writer, rate float64) *reqLogger {
	if w == nil || rate <= 0 {
		return nil
	}
	period := int64(1)
	if rate < 1 {
		period = int64(1/rate + 0.5)
		if period < 1 {
			period = 1
		}
	}
	return &reqLogger{w: w, period: period}
}

// sample decides at request start (head sampling) whether this request
// logs. Nil-receiver-safe: a disabled logger samples nothing.
func (l *reqLogger) sample() bool {
	if l == nil {
		return false
	}
	return (l.seq.Add(1)-1)%l.period == 0
}

// emit writes one JSON line. Serialized under a mutex so concurrent
// request lines never interleave mid-record.
func (l *reqLogger) emit(e reqLogEntry) {
	b, err := json.Marshal(e)
	if err != nil {
		log.Printf("pathcoverd: reqlog marshal: %v", err)
		return
	}
	b = append(b, '\n')
	l.mu.Lock()
	_, werr := l.w.Write(b)
	l.mu.Unlock()
	if werr != nil {
		log.Printf("pathcoverd: reqlog write: %v", werr)
	}
}
