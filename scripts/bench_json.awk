# bench_json.awk — turns `go test -bench` output into the repo's
# BENCH_figures.json. Invoked by scripts/bench.sh (and by check.sh's
# fixture stage) as:
#
#	awk -v cores="$CORES" -f scripts/bench_json.awk raw-bench-output.txt
#
# A benchmark result line is
#
#	BenchmarkName/sub-P  <iterations>  <ns-per-op>  ns/op  [more pairs]
#
# and only lines of exactly that shape are stored. "nproc" records the
# cores variable (the host's online CPU count); "gomaxprocs" is the -P
# suffix go test appends to the first result's name, which it omits when
# GOMAXPROCS is 1. The matcher is one
# pattern with every field validated numerically. The previous inline
# version had two defects this file pins down (see the fixture under
# scripts/testdata/): an `a && b || c` precedence slip let an arm that
# tested `$3 == "ns/op"` fire on malformed lines and store the literal
# string "ns/op" as the ns_per_op value — invalid JSON — and the cpu
# model string was interpolated into the JSON unescaped.

function jesc(s) {
	# gsub replacements interpret backslashes a second time, hence the
	# doubling-of-the-doubling: these emit \\ and \" into the JSON.
	gsub(/\\/, "\\\\\\\\", s)
	gsub(/"/, "\\\"", s)
	return s
}
BEGIN { n = 0 }
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^goos:/ { goos = $2 }
/^goarch:/ { goarch = $2 }
/^Benchmark/ && NF >= 4 && $4 == "ns/op" \
	&& $2 ~ /^[0-9]+$/ \
	&& $3 ~ /^[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$/ {
	name = $1
	if (n == 0) {
		procs = 1
		if (match(name, /-[0-9]+$/)) procs = substr(name, RSTART + 1)
	}
	sub(/-[0-9]+$/, "", name)   # strip the -GOMAXPROCS suffix
	iters[n] = $2
	nsop[n] = $3
	names[n] = name
	n++
}
END {
	printf "{\n"
	printf "  \"schema\": \"filealloc-bench/1\",\n"
	printf "  \"goos\": \"%s\",\n", jesc(goos)
	printf "  \"goarch\": \"%s\",\n", jesc(goarch)
	printf "  \"cpu\": \"%s\",\n", jesc(cpu)
	printf "  \"nproc\": %d,\n", cores
	printf "  \"gomaxprocs\": %s,\n", (n > 0 ? procs : "null")
	printf "  \"benchmarks\": [\n"
	for (i = 0; i < n; i++) {
		printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s}%s\n", \
			jesc(names[i]), iters[i], nsop[i], (i < n-1 ? "," : "")
	}
	printf "  ],\n"
	printf "  \"speedups\": [\n"
	first = 1
	for (i = 0; i < n; i++) {
		if (names[i] !~ /\/serial$/) continue
		base = names[i]
		sub(/\/serial$/, "", base)
		for (j = 0; j < n; j++) {
			if (names[j] == base "/parallel" && nsop[j] + 0 > 0) {
				if (!first) printf ",\n"
				first = 0
				printf "    {\"figure\": \"%s\", \"serial_ns\": %s, \"parallel_ns\": %s, \"speedup\": %.3f}", \
					jesc(base), nsop[i], nsop[j], nsop[i] / nsop[j]
			}
		}
	}
	if (!first) printf "\n"
	printf "  ]\n"
	printf "}\n"
}
