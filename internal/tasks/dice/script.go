package dice

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/brat"
	"repro/internal/cost"
	"repro/internal/notebook"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/raysim"
	"repro/internal/relation"
)

// Notebook cell sources (pseudo-Python). These are the script
// paradigm's user-facing implementation: what a data scientist would
// write in Jupyter, and what the lines-of-code experiment counts.

const srcImports = `import os
import ray
import pandas as pd
from collections import defaultdict
from preprocessing import split_sentences

ray.init(address="auto")
DATA_DIR = "maccrobat/"
`

const srcLoadFiles = `def list_pairs(data_dir):
    pairs = []
    for name in sorted(os.listdir(data_dir)):
        if not name.endswith(".txt"):
            continue
        base = name[:-len(".txt")]
        ann = os.path.join(data_dir, base + ".ann")
        txt = os.path.join(data_dir, name)
        if not os.path.exists(ann):
            raise FileNotFoundError(ann)
        pairs.append((base, txt, ann))
    return pairs

pairs = list_pairs(DATA_DIR)
print(f"found {len(pairs)} text/annotation pairs")
`

const srcWrangle = `def parse_annotation_file(case_id, path):
    entities, events = {}, []
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if not line:
                continue
            key, body = line.split("\t", 1)
            if key.startswith("T"):
                header, text = body.split("\t", 1)
                etype, start, end = header.split(" ")
                entities[key] = {
                    "case": case_id, "id": key, "type": etype,
                    "start": int(start), "end": int(end), "text": text,
                }
            elif key.startswith("E"):
                fields = body.split(" ")
                etype, trigger = fields[0].split(":")
                theme = None
                for arg in fields[1:]:
                    role, ref = arg.split(":")
                    if role == "Theme":
                        theme = ref
                        break
                events.append({
                    "case": case_id, "id": key, "type": etype,
                    "trigger": trigger, "theme": theme,
                })
            else:
                raise ValueError(f"unknown annotation kind: {line}")
    return entities, events

def split_events_by_theme(events):
    with_theme, without_theme = [], []
    for ev in events:
        if ev["theme"] is not None:
            with_theme.append(ev)
        else:
            without_theme.append(ev)
    return with_theme, without_theme

def join_theme_entities(with_theme, entities):
    enriched = []
    for ev in with_theme:
        theme_ent = entities.get(ev["theme"])
        if theme_ent is None:
            raise KeyError(f"{ev['case']}: unresolved theme {ev['theme']}")
        row = dict(ev)
        row["theme_text"] = theme_ent["text"]
        enriched.append(row)
    return enriched

def rejoin_heldout(enriched, without_theme):
    merged = list(enriched)
    for ev in without_theme:
        row = dict(ev)
        row["theme_text"] = ""
        merged.append(row)
    return merged

def resolve_triggers(merged, entities):
    resolved = []
    for ev in merged:
        trig = entities.get(ev["trigger"])
        if trig is None:
            raise KeyError(f"{ev['case']}: unresolved trigger {ev['trigger']}")
        row = dict(ev)
        row["trigger_text"] = trig["text"]
        row["start"], row["end"] = trig["start"], trig["end"]
        resolved.append(row)
    return resolved

def link_sentences(resolved, text):
    sentences = split_sentences(text)
    linked = []
    for ev in resolved:
        sentence = None
        for s in sentences:
            if ev["start"] >= s.start and ev["end"] <= s.end:
                sentence = s.text
                break
        if sentence is None:
            raise ValueError(f"{ev['case']}: trigger outside every sentence")
        linked.append({
            "case": ev["case"], "event": ev["id"], "etype": ev["type"],
            "trigger": ev["trigger_text"], "theme": ev["theme_text"],
            "sentence": sentence,
        })
    return linked

@ray.remote
def wrangle_chunk(chunk):
    records = []
    for case_id, txt_path, ann_path in chunk:
        entities, events = parse_annotation_file(case_id, ann_path)
        with_theme, without_theme = split_events_by_theme(events)
        enriched = join_theme_entities(with_theme, entities)
        merged = rejoin_heldout(enriched, without_theme)
        resolved = resolve_triggers(merged, entities)
        with open(txt_path) as f:
            text = f.read()
        records.extend(link_sentences(resolved, text))
    return records

chunks = [pairs[i::NUM_CHUNKS] for i in range(NUM_CHUNKS)]
futures = [wrangle_chunk.remote(c) for c in chunks]
chunk_records = ray.get(futures)
`

const srcWrite = `records = [r for chunk in chunk_records for r in chunk]
records.sort(key=lambda r: (r["case"], r["event"]))
df = pd.DataFrame.from_records(records)
df.to_json("maccrobat_ee.jsonl", orient="records", lines=True)
print(f"wrote {len(df)} MACCROBAT-EE records")
`

// Notebook implements pipeline.Declaration: DICE as a notebook scaled
// out with the Ray-style backend — pairs are wrangled in parallel chunk
// tasks, then aggregated and written on the driver.
func (t *Task) Notebook(env *pipeline.Env) pipeline.NotebookDecl {
	var chunkRecords [][]Record
	var out []Record
	cells := []*notebook.Cell{
		{Name: "imports", Source: srcImports, Run: func(k *notebook.Kernel) error {
			k.Charge(cost.Work{Interp: 1.2, Mem: 0.3}) // import pandas, ray, init
			k.Set("pairs", t.cases)
			return nil
		}},
		{Name: "load_files", Source: srcLoadFiles, Run: func(k *notebook.Kernel) error {
			k.Charge(cost.Work{Interp: 0.05}.Scale(1)) // directory listing
			return nil
		}},
		{Name: "wrangle_chunks", Source: srcWrangle, Run: func(k *notebook.Kernel) error {
			return k.Call("wrangle_chunk", func() error {
				// Partition pairs round-robin into chunks, one per CPU
				// slot times four for load balancing. The chunks run
				// concurrently, each into its own slots, and the first
				// failing chunk's error is returned, as a serial loop's.
				nChunks := min(env.Workers*4, len(t.cases))
				job := make([]raysim.TaskSpec, nChunks)
				chunkRecords = make([][]Record, nChunks)
				errs := make([]error, nChunks)
				par.Do(nChunks, func(ci int) {
					var work cost.Work
					nRecs := 0 // one record per event
					for i := ci; i < len(t.cases); i += nChunks {
						nRecs += len(t.cases[i].Ann.Events)
					}
					recs := make([]Record, 0, nRecs)
					ents := make(map[string]brat.Entity)
					for i := ci; i < len(t.cases); i += nChunks {
						c := &t.cases[i]
						work = work.Add(workScan.Scale(2)) // .txt + .ann
						// The script reads annotation files from disk, so the
						// parse step consumes rendered text.
						doc, err := parseAnn(c.ID, brat.Render(c.Ann))
						if err != nil {
							errs[ci] = err
							return
						}
						nEvents := len(doc.Events)
						work = work.Add(workParse.Scale(float64(len(doc.Entities) + nEvents)))
						work = work.Add(workFilter.Scale(float64(nEvents)))
						work = work.Add(workJoin.Scale(2 * float64(nEvents))) // theme + trigger joins
						sents := splitCaseSentences(c.Text)
						work = work.Add(workSplit.Scale(float64(len(sents))))
						work = work.Add(workLink.Scale(float64(nEvents * len(sents))))
						if recs, errs[ci] = appendCaseRecords(recs, c, sents, ents); errs[ci] != nil {
							return
						}
					}
					chunkRecords[ci] = recs
					job[ci] = raysim.TaskSpec{Name: fmt.Sprintf("wrangle-%d", ci), Work: work}
				})
				for _, err := range errs {
					if err != nil {
						return err
					}
				}
				return env.RunJob(k, job)
			})
		}},
		{Name: "aggregate_write", Source: srcWrite, Run: func(k *notebook.Kernel) error {
			out = slices.Concat(chunkRecords...)
			sort.Slice(out, func(i, j int) bool {
				if out[i].Case != out[j].Case {
					return out[i].Case < out[j].Case
				}
				return out[i].Event < out[j].Event
			})
			k.Charge(workWrite.Scale(float64(len(out))))
			return nil
		}},
	}
	return pipeline.NotebookDecl{
		Cells: cells,
		Revs: map[string][]string{
			"wrangle_chunks":  {"parse", "split"},
			"aggregate_write": {"write"},
		},
		Output: func() (*relation.Table, map[string]float64, error) {
			return RecordsToTable(out), nil, nil
		},
	}
}
