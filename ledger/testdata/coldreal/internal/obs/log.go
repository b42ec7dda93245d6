package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Level orders log severities. The zero value is LevelInfo so a
// zero-configured logger behaves like a conventional server log.
type Level int8

const (
	LevelDebug Level = iota - 1
	LevelInfo
	LevelWarn
	LevelError
)

// String renders the level the way the JSON lines spell it.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return "info"
	}
}

// ParseLevel maps a -log-level flag value to a Level.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "info", "":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("obs: unknown log level %q", s)
}

// Logger emits structured leveled JSON lines: one object per line with
// "ts" (RFC 3339, millisecond precision, UTC), "level", "msg", then the
// caller's key/value pairs in the order given — deterministic field
// order, so log pipelines and tests can match lines without a JSON
// parser. Like every obs instrument, a nil *Logger is a no-op on every
// method, and below-threshold calls cost one comparison.
type Logger struct {
	mu    sync.Mutex
	w     io.Writer
	level Level
	now   func() time.Time // test hook; nil means time.Now
}

// NewLogger builds a logger writing JSON lines at or above level to w.
func NewLogger(w io.Writer, level Level) *Logger {
	return &Logger{w: w, level: level}
}

// Enabled reports whether the logger would emit at level. Nil-safe
// (false), so callers can skip expensive field assembly.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && level >= l.level
}

// Debug emits a debug line. kv is alternating key, value pairs.
func (l *Logger) Debug(msg string, kv ...any) { l.log(LevelDebug, msg, kv) }

// Info emits an info line.
func (l *Logger) Info(msg string, kv ...any) { l.log(LevelInfo, msg, kv) }

// Warn emits a warning line.
func (l *Logger) Warn(msg string, kv ...any) { l.log(LevelWarn, msg, kv) }

// Error emits an error line.
func (l *Logger) Error(msg string, kv ...any) { l.log(LevelError, msg, kv) }

func (l *Logger) log(level Level, msg string, kv []any) {
	if !l.Enabled(level) {
		return
	}
	now := time.Now
	if l.now != nil {
		now = l.now
	}
	var buf bytes.Buffer
	buf.WriteString(`{"ts":"`)
	buf.WriteString(now().UTC().Format("2006-01-02T15:04:05.000Z07:00"))
	buf.WriteString(`","level":"`)
	buf.WriteString(level.String())
	buf.WriteString(`","msg":`)
	writeJSONValue(&buf, msg)
	for i := 0; i+1 < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			key = fmt.Sprint(kv[i])
		}
		buf.WriteByte(',')
		writeJSONValue(&buf, key)
		buf.WriteByte(':')
		writeJSONValue(&buf, kv[i+1])
	}
	if len(kv)%2 == 1 {
		// A dangling key is logged rather than dropped, so the mistake is
		// visible in the output it garbled.
		buf.WriteString(`,"!BADKEY":`)
		writeJSONValue(&buf, kv[len(kv)-1])
	}
	buf.WriteString("}\n")
	l.mu.Lock()
	l.w.Write(buf.Bytes())
	l.mu.Unlock()
}

// writeJSONValue marshals one value; values that fail to marshal render
// as their fmt string so a log line is never silently lost.
func writeJSONValue(buf *bytes.Buffer, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		data, _ = json.Marshal(fmt.Sprint(v))
	}
	buf.Write(data)
}
