package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"time"

	"stableheap/internal/obs"
)

// decode is shstat -decode: it renders a flight-recorder (black-box) dump
// as a human-readable timeline and, with chrome set, a Chrome trace_event
// JSON document of the newest boot.
//
// The dump is the byte stream a heap's flight journal accumulated — written
// under Config.FlightRecorder, exported by Heap.FlightDump or shchaos
// -blackbox. It may hold frames from several boots (a chaos run crashes and
// recovers many times); by default the newest boot's events are shown,
// which is exactly the pre-crash timeline after a crash. tail > 0 keeps the
// last tail events per boot; all prints every boot, oldest first.
func decode(path string, tail int, all bool, chrome string, stdout io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	boots, err := obs.DecodeDumpBoots(data)
	if err != nil {
		return fmt.Errorf("decoding %s: %w", path, err)
	}
	if len(boots) == 0 {
		fmt.Fprintln(stdout, "empty dump: no events recorded")
		return nil
	}
	show := boots[len(boots)-1:]
	if all {
		show = boots
	}
	for _, b := range show {
		evs := b.Events
		if len(evs) == 0 {
			continue
		}
		fmt.Fprintf(stdout, "boot %s — %d events (seq %d..%d)\n",
			time.Unix(0, b.Boot).UTC().Format(time.RFC3339Nano),
			len(evs), evs[0].Seq, evs[len(evs)-1].Seq)
		if tail > 0 {
			fmt.Fprint(stdout, obs.FormatTail(evs, tail))
		} else {
			fmt.Fprint(stdout, obs.FormatEvents(evs))
		}
	}
	if chrome == "" {
		return nil
	}
	var doc bytes.Buffer
	if err := obs.WriteEventsChrome(&doc, boots[len(boots)-1].Events); err != nil {
		return err
	}
	if err := os.WriteFile(chrome, doc.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote Chrome trace to %s\n", chrome)
	return nil
}
