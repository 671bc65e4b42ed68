package brat

import "fmt"

// Validate checks internal consistency: unique IDs, event triggers and
// argument references resolving to existing annotations, and entity
// spans lying inside a text of the given length (pass a negative
// length to skip the span check).
func (d *Document) Validate(textLen int) error {
	ids := make(map[string]bool, len(d.Entities)+len(d.Events))
	for _, e := range d.Entities {
		if ids[e.ID] {
			return fmt.Errorf("brat: duplicate id %s", e.ID)
		}
		ids[e.ID] = true
		if textLen >= 0 && e.End > textLen {
			return fmt.Errorf("brat: entity %s span [%d,%d) exceeds text length %d", e.ID, e.Start, e.End, textLen)
		}
	}
	for _, ev := range d.Events {
		if ids[ev.ID] {
			return fmt.Errorf("brat: duplicate id %s", ev.ID)
		}
		ids[ev.ID] = true
	}
	for _, ev := range d.Events {
		if !ids[ev.Trigger] {
			return fmt.Errorf("brat: event %s trigger %s not found", ev.ID, ev.Trigger)
		}
		for _, a := range ev.Args {
			if !ids[a.Ref] {
				return fmt.Errorf("brat: event %s argument %s:%s not found", ev.ID, a.Role, a.Ref)
			}
		}
	}
	return nil
}
