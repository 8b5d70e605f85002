package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Level grades log entries. Request entries derive their level from the
// response status: 5xx → LevelError, 4xx → LevelWarn, everything else →
// LevelInfo.
type Level int8

// The log levels, least to most severe.
const (
	LevelInfo Level = iota
	LevelWarn
	LevelError
)

// String returns the level's JSON spelling.
func (l Level) String() string {
	switch l {
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return "info"
	}
}

// RequestEntry is one structured request-log record, serialized as a single
// JSON line. Field order is fixed by the struct so logs diff cleanly.
type RequestEntry struct {
	// Time is the completion time in RFC 3339 with milliseconds.
	Time string `json:"ts"`
	// Level is derived from Status (info / warn / error).
	Level string `json:"level"`
	// Method and Route identify the request (Route is the normalized route
	// pattern, not the raw URL, so cardinality stays bounded).
	Method string `json:"method"`
	Route  string `json:"route"`
	// Status is the HTTP status written.
	Status int `json:"status"`
	// DurationMs is the handler wall time in milliseconds.
	DurationMs float64 `json:"duration_ms"`
	// Shard is the serving shard (omitted on unsharded servers).
	Shard *int `json:"shard,omitempty"`
	// Version is the serving-engine generation that answered (omitted when
	// unknown, e.g. on a router).
	Version int `json:"version,omitempty"`
	// Client is the admission key of the caller (header or remote host),
	// when known.
	Client string `json:"client,omitempty"`
}

// RequestLogger writes leveled JSON-line request records. Safe for
// concurrent use; each entry is one Write call so lines never interleave.
// The zero value discards everything; construct with NewRequestLogger.
type RequestLogger struct {
	mu sync.Mutex
	w  io.Writer
}

// NewRequestLogger logs every request as one JSON line to w. A nil writer
// returns a logger that discards everything (callers can pass it around
// unconditionally).
func NewRequestLogger(w io.Writer) *RequestLogger {
	return &RequestLogger{w: w}
}

// Log writes one entry at the given level. Encoding errors are swallowed:
// losing a log line must never fail a request.
func (l *RequestLogger) Log(level Level, e RequestEntry) {
	if l == nil || l.w == nil {
		return
	}
	e.Level = level.String()
	if e.Time == "" {
		e.Time = time.Now().UTC().Format("2006-01-02T15:04:05.000Z07:00")
	}
	line, err := json.Marshal(e)
	if err != nil {
		return
	}
	line = append(line, '\n')
	l.mu.Lock()
	_, _ = l.w.Write(line)
	l.mu.Unlock()
}

// levelForStatus derives the request-log level from an HTTP status.
func levelForStatus(status int) Level {
	switch {
	case status >= 500:
		return LevelError
	case status >= 400:
		return LevelWarn
	default:
		return LevelInfo
	}
}
