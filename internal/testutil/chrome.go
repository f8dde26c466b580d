package testutil

import (
	"encoding/json"
	"fmt"
	"io"
)

// ChromeTrace is the subset of the Chrome trace-event object format that
// ReadChrome parses back — enough for tests to verify the traces
// telemetry.WriteChrome writes.
type ChromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []ChromeEvent `json:"traceEvents"`
}

// ChromeEvent is one parsed trace event.
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// ReadChrome parses a trace written by telemetry.WriteChrome.
func ReadChrome(r io.Reader) (*ChromeTrace, error) {
	var t ChromeTrace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("testutil: parsing chrome trace: %w", err)
	}
	return &t, nil
}
