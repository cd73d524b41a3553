package datagen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Domain identifies a synthetic data domain, mirroring the domains of the
// paper's ten datasets.
type Domain int

const (
	// Restaurants mirrors D1 (OAEI restaurants).
	Restaurants Domain = iota
	// Products mirrors D2, D3 and D8 (Abt-Buy, Amazon-Google,
	// Walmart-Amazon).
	Products
	// Bibliographic mirrors D4 and D9 (DBLP-ACM, DBLP-Scholar).
	Bibliographic
	// Movies mirrors D5-D7 and D10 (IMDb/TMDb/TVDB, IMDb-DBpedia).
	Movies
)

func pick(rng *rand.Rand, pool []string) string { return pool[rng.Intn(len(pool))] }

// base36 renders idx compactly; embedded into a uniqueness-bearing
// attribute so that two distinct base entities can never collide.
func base36(idx int) string {
	const digits = "0123456789abcdefghijklmnopqrstuvwxyz"
	if idx == 0 {
		return "0"
	}
	var b []byte
	for idx > 0 {
		b = append([]byte{digits[idx%36]}, b...)
		idx /= 36
	}
	return string(b)
}

// generate produces the full clean attribute map of base entity idx in
// the domain. One attribute per domain embeds idx, guaranteeing that
// distinct base entities are distinguishable (the clean-collection
// property). The returned map is the superset of attributes; each dataset
// side projects a subset.
func (d Domain) generate(rng *rand.Rand, idx int) map[string]string {
	switch d {
	case Restaurants:
		name := fmt.Sprintf("%s %s %s", pick(rng, restaurantAdjectives),
			pick(rng, restaurantNouns), pick(rng, []string{"bistro", "grill", "cafe", "house", "tavern"}))
		return map[string]string{
			"name":    name,
			"phone":   fmt.Sprintf("(%03d) %03d-%04d", 200+(idx/10000000)%700, (idx/10000)%1000, idx%10000),
			"address": fmt.Sprintf("%d %s", 1+idx%980, pick(rng, streets)),
			"city":    pick(rng, cities),
			"cuisine": pick(rng, cuisines),
			"type":    pick(rng, []string{"casual", "fine dining", "fast food", "family"}),
			"owner":   pick(rng, firstNames) + " " + pick(rng, lastNames),
		}
	case Products:
		brand := pick(rng, brands)
		noun := pick(rng, productNouns)
		model := fmt.Sprintf("%s%d-%s", strings.ToUpper(brand[:2]),
			100+rng.Intn(900), strings.ToUpper(base36(idx)))
		title := fmt.Sprintf("%s %s %s %s %s", brand, pick(rng, productQualifiers),
			noun, model, pick(rng, colors))
		return map[string]string{
			"title":       title,
			"name":        fmt.Sprintf("%s %s %s", brand, noun, model),
			"brand":       brand,
			"modelno":     model,
			"price":       fmt.Sprintf("%d.%02d", 10+rng.Intn(990), rng.Intn(100)),
			"category":    noun + "s",
			"description": fmt.Sprintf("%s %s with %s design", pick(rng, productQualifiers), noun, pick(rng, productQualifiers)),
		}
	case Bibliographic:
		numAuthors := 1 + rng.Intn(3)
		authors := make([]string, numAuthors)
		for i := range authors {
			authors[i] = pick(rng, firstNames) + " " + pick(rng, lastNames)
		}
		topic := pick(rng, researchNouns)
		title := fmt.Sprintf("%s %s for %s", pick(rng, researchAdjectives),
			topic, pick(rng, researchContexts))
		year := 1995 + idx%27
		return map[string]string{
			"title":    title,
			"authors":  strings.Join(authors, ", "),
			"venue":    pick(rng, venues),
			"year":     fmt.Sprintf("%d", year),
			"pages":    fmt.Sprintf("%d-%d", 1+idx, 12+idx),
			"abstract": fmt.Sprintf("we study %s in %s and present a %s approach evaluated on %s workloads", topic, pick(rng, researchContexts), pick(rng, researchAdjectives), pick(rng, researchContexts)),
		}
	case Movies:
		title := fmt.Sprintf("the %s %s", pick(rng, movieAdjectives), pick(rng, movieNouns))
		if rng.Intn(3) == 0 {
			title += " " + pick(rng, movieNouns)
		}
		year := 1950 + idx%73
		return map[string]string{
			"title":    title,
			"name":     title + fmt.Sprintf(" (%d)", year),
			"year":     fmt.Sprintf("%d", year),
			"director": pick(rng, firstNames) + " " + pick(rng, lastNames),
			"actors": pick(rng, firstNames) + " " + pick(rng, lastNames) + ", " +
				pick(rng, firstNames) + " " + pick(rng, lastNames),
			"genre":    pick(rng, genres),
			"language": pick(rng, languages),
			"runtime":  fmt.Sprintf("%d min", 75+idx%110),
		}
	default:
		panic("datagen: unknown domain")
	}
}

// uniqueAttr names the attribute of each domain that embeds the base
// entity index; it is protected from the Missing noise so that distinct
// base entities remain distinguishable (exactly so for phone, modelno and
// pages; movies keep realistic remake-style collisions, as the real IMDb
// datasets do).
func (d Domain) uniqueAttr() string {
	switch d {
	case Restaurants:
		return "phone"
	case Products:
		return "modelno"
	case Bibliographic:
		return "pages"
	case Movies:
		return "runtime"
	default:
		return ""
	}
}
