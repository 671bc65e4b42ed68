package datagen

import (
	"fmt"
	"strings"

	"repro/internal/xrand"
)

// Framing indexes the four WEF climate framings, in FramingNames'
// order: explicit links between wildfires and climate change,
// suggesting climate actions, attributing climate change to
// adversities besides wildfires, and not relevant.
type Framing int

const (
	// FramingIrrelevant: not relevant to climate framing.
	FramingIrrelevant Framing = NumFramings - 1
	// NumFramings is the framing count.
	NumFramings = 4
)

// FramingNames lists the framing labels in index order.
var FramingNames = []string{"link", "action", "attribution", "irrelevant"}

// Tweet is one expert-labeled example: the text and its one-to-four
// framings.
type Tweet struct {
	ID       int64
	Text     string
	Framings [NumFramings]bool
}

var framingPhrases = [NumFramings][]string{
	{ // link
		"this wildfire is climate change in action",
		"fires like this are fueled by a warming climate",
		"climate change made this fire season explosive",
		"hotter and drier every year and now this fire",
	},
	{ // action
		"we need climate action now",
		"vote for leaders who will cut emissions",
		"invest in renewables before the next fire",
		"demand a real climate policy today",
	},
	{ // attribution
		"the drought ruining crops is climate change too",
		"heat waves and floods share the same climate cause",
		"our reservoirs are empty because the climate shifted",
		"storms keep getting worse as the planet warms",
	},
	{ // irrelevant
		"highway 50 closed near the fire line",
		"praying for the firefighters tonight",
		"smoke photos from my balcony",
		"school canceled again because of the smoke",
	},
}

var tweetFillers = []string{
	"#wildfire", "stay safe everyone", "unbelievable", "again",
	"share this", "2020 strikes again", "watching the news",
}

var fireNames = []string{"Caldor", "Dixie", "Camp", "Glass", "August Complex", "Creek"}

// GenerateTweets builds n labeled tweets. Each tweet carries one to
// four framings; its text contains one phrase per active framing plus
// noise, so the framing markers are learnable but not trivial.
func GenerateTweets(n int, seed uint64) []Tweet {
	r := xrand.New(seed)
	tweets := make([]Tweet, n)
	for i := 0; i < n; i++ {
		var t Tweet
		t.ID = int64(i)
		// Pick 1-4 framings; an irrelevant-only tweet is common.
		k := 1 + r.WeightedIndex([]float64{55, 25, 15, 5})
		perm := r.Perm(NumFramings)
		var parts []string
		for _, f := range perm[:k] {
			t.Framings[f] = true
			parts = append(parts, xrand.Choice(r, framingPhrases[f]))
		}
		parts = append(parts, fmt.Sprintf("%s fire", xrand.Choice(r, fireNames)))
		if r.Bool(0.7) {
			parts = append(parts, xrand.Choice(r, tweetFillers))
		}
		r.Shuffle(len(parts), func(a, b int) { parts[a], parts[b] = parts[b], parts[a] })
		t.Text = strings.Join(parts, " ")
		tweets[i] = t
	}
	return tweets
}

// Texts returns the text column of a tweet slice.
func Texts(tweets []Tweet) []string {
	out := make([]string, len(tweets))
	for i, t := range tweets {
		out[i] = t.Text
	}
	return out
}
