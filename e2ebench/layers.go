package main

import "strings"

// sqlActionTools are the toolkit's per-action SQL tools (paper §2.3); their
// handlers verify a statement through the Conn before executing it.
var sqlActionTools = map[string]bool{
	"core.tool.select": true, "core.tool.insert": true, "core.tool.update": true, "core.tool.delete": true,
	"core.tool.create_table": true, "core.tool.drop_table": true, "core.tool.alter_table": true,
}

// spanMetrics derives the span-based per-layer metrics from the traced
// tasks, each a trace whose root span is rootName.
func spanMetrics(traces []*traceBuf, rootName string, m map[string]float64) {
	var (
		tasks                            = float64(len(traces))
		layerNs                          = map[string]float64{}
		rootNs, overlapNs, ambiguous     float64
		spansN                           float64
		buildNs, buildN, newNs, newN     float64
		execNs, execN                    float64
		verifyNs, sqlCalls               float64
		handlerSelfNs, handlerN          float64
		proxySelfNs, proxyRows, proxyByt float64
		envelopeNs, mcpN, mcpBytes       float64
		mlNs, decideNs, decideN          float64
		agentSelfNs                      float64
	)
	for _, tb := range traces {
		st := analyzeTrace(tb.spans, rootName)
		for l, ns := range st.layerNs {
			layerNs[l] += ns
		}
		rootNs += float64(st.rootDur)
		overlapNs += float64(st.overlapNs)
		ambiguous += float64(st.ambiguous)
		spansN += float64(len(tb.spans))

		byID := make(map[uint64]*span, len(tb.spans))
		var proxies []*span
		for i := range tb.spans {
			s := &tb.spans[i]
			byID[s.ID] = s
			if s.Name == "core.tool.proxy" {
				proxies = append(proxies, s)
			}
		}
		for i := range tb.spans {
			s := &tb.spans[i]
			d := float64(s.dur())
			self := float64(st.self[s.ID])
			switch {
			case s.Name == rootName && s.Layer == layerAgent:
				agentSelfNs += self
			case s.Name == "birdext.build_engine":
				buildNs += d
				buildN++
			case s.Name == "core.new":
				newNs += d
				newN++
			case s.Name == "llm.decide":
				decideNs += d
				decideN++
			case s.Name == "mcp.call":
				envelopeNs += self
				mcpBytes += float64(s.Bytes)
				mcpN++
			case s.Name == "core.tool.proxy":
				proxySelfNs += self
			case strings.HasPrefix(s.Name, "core.tool."):
				if s.Layer == layerMLTools {
					mlNs += d
				} else {
					handlerSelfNs += self
					handlerN++
				}
				if sqlActionTools[s.Name] {
					sqlCalls++
				}
				if p, ok := byID[s.Parent]; ok && strings.HasPrefix(p.Name, "core.tool.") {
					proxyByt += float64(s.Bytes)
				}
			case s.Name == "core.conn.Exec":
				execNs += d
				execN++
				for _, p := range proxies {
					if p.Start <= s.Start && p.End >= s.End {
						proxyRows += float64(s.Rows)
						break
					}
				}
			case s.Name == "core.conn.ClassifySQL" || s.Name == "core.conn.HasPrivilege":
				parents := st.connParent[s.ID]
				inSQLTool := len(parents) > 0
				for _, p := range parents {
					if !sqlActionTools[byID[p].Name] {
						inSQLTool = false
					}
				}
				if inSQLTool {
					verifyNs += d
				}
			}
		}
	}
	perTaskMs := func(ns float64) float64 { return ratio(ns, tasks) / 1e6 }
	for _, l := range accountedLayers {
		m["selftime."+l+"_ms_per_task"] = perTaskMs(layerNs[l])
	}
	m["selftime.overlap_ms_per_task"] = perTaskMs(overlapNs)
	m["selftime.root_ms_per_task"] = perTaskMs(rootNs)
	m["trace.spans_per_task"] = ratio(spansN, tasks)
	m["core.conn_ambiguous_per_task"] = ratio(ambiguous, tasks)

	m["birdext.build_engine_ms"] = ratio(buildNs, buildN) / 1e6
	m["core.toolkit_new_us"] = ratio(newNs, newN) / 1e3
	m["core.verify_us_per_call"] = ratio(verifyNs, sqlCalls) / 1e3
	m["core.handler_self_us_per_call"] = ratio(handlerSelfNs, handlerN) / 1e3
	m["core.conn_exec_us_per_call"] = ratio(execNs, execN) / 1e3
	m["core.proxy_self_ms_per_task"] = perTaskMs(proxySelfNs)
	m["core.proxy_rows_moved"] = ratio(proxyRows, tasks)
	m["core.proxy_bytes_moved"] = ratio(proxyByt, tasks)
	m["mcp.envelope_us_per_call"] = ratio(envelopeNs, mcpN) / 1e3
	m["mcp.result_bytes_per_call"] = ratio(mcpBytes, mcpN)
	m["mltools.handler_ms_per_task"] = perTaskMs(mlNs)
	m["llm.decide_us_per_call"] = ratio(decideNs, decideN) / 1e3
	m["agent.self_us_per_task"] = ratio(agentSelfNs, tasks) / 1e3
}
