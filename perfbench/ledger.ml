(* The metric vocabulary and the result a run prints.

   [end_to_end] and [per_layer] are the single source of the names,
   units and directions the benchmark emits; BENCHMARK.json at the
   repository root must list exactly these (the test in this directory
   checks it). End-to-end metrics carry the bound by which a change may
   worsen them; per-layer metrics carry none. README.md maps each name
   to its meaning on each workload. *)

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better; bound : float option }

let e name unit_ better bound = { name; unit_; better; bound = Some bound }
let l name unit_ better = { name; unit_; better; bound = None }

let end_to_end =
  [
    e "setup_s" "s" Lower 0.25;
    e "peak_rss_mb" "MB" Lower 0.15;
    e "ops_per_s" "1/s" Higher 0.2;
    e "light_p50_ms" "ms" Lower 0.2;
    e "heavy_p50_ms" "ms" Lower 0.2;
  ]

let per_layer =
  [
    (* Dataset.Golub, Dataset.Mrmr, Nn.Train, Nn.Quantize, Fannet.Validate *)
    l "dataset.generate_s" "s" Lower;
    l "mrmr.select_s" "s" Lower;
    l "train.train_s" "s" Lower;
    l "quantize.quantize_s" "s" Lower;
    l "validate.p1_s" "s" Lower;
    (* Fannet.Tolerance *)
    l "tolerance.network_s" "s" Lower;
    l "tolerance.sweep_s" "s" Lower;
    l "tolerance.probes" "count" Lower;
    (* Fannet.Extract, Bias, Sensitivity, Boundary *)
    l "extract.for_inputs_s" "s" Lower;
    l "extract.vectors" "count" Higher;
    l "bias.analyze_s" "s" Lower;
    l "sensitivity.per_node_s" "s" Lower;
    l "sensitivity.formal_s" "s" Lower;
    l "boundary.analyze_s" "s" Lower;
    (* Fannet.Backend, Fannet.Bnb *)
    l "backend.cascade.interval_hits" "count" Higher;
    l "backend.cascade.escalations" "count" Lower;
    l "backend.cascade.hit_ratio" "ratio" Higher;
    l "backend.bnb.query_p50_ms" "ms" Lower;
    l "backend.bnb.query_p99_ms" "ms" Lower;
    (* Util.Parallel *)
    l "parallel.batches" "count" Lower;
    l "parallel.items" "count" Lower;
    l "parallel.steals" "count" Lower;
    l "parallel.busy_s" "s" Lower;
    l "parallel.overhead_s" "s" Lower;
    (* Sat, Smtlite, Cert *)
    l "certify.solve_ms" "ms" Lower;
    l "sat.conflicts" "count" Lower;
    l "sat.propagations" "count" Lower;
    l "smtlite.clauses_per_query" "count" Lower;
    l "cert.check_ms" "ms" Lower;
    l "cert.proof_bytes" "B" Lower;
    (* Count.Exact *)
    l "count.exact_ms" "ms" Lower;
    l "count.cubes" "count" Lower;
    l "count.solver_calls" "count" Lower;
    (* Serve.Protocol, Util.Json *)
    l "protocol.encode_plain_us" "us" Lower;
    l "protocol.decode_plain_us" "us" Lower;
    l "protocol.encode_cert_ms" "ms" Lower;
    l "protocol.decode_cert_ms" "ms" Lower;
    l "reply.plain_bytes" "B" Lower;
    l "reply.cert_bytes" "B" Lower;
    (* Serve.Daemon, Serve.Wire, socket *)
    l "serve.plain_other_ms" "ms" Lower;
    (* Serve.Lru *)
    l "lru.hits" "count" Higher;
    l "lru.misses" "count" Lower;
    l "lru.hit_ratio" "ratio" Higher;
    l "lru.entries" "count" Higher;
    (* Serve.Store *)
    l "store.open_s" "s" Lower;
    l "store.recovered" "count" Higher;
    l "store.dropped" "count" Lower;
    l "store.append_ms" "ms" Lower;
    l "store.file_bytes" "B" Lower;
    l "store.compactions" "count" Lower;
    (* admission *)
    l "serve.rejected" "count" Lower;
    l "serve.failed" "count" Lower;
    (* the traced run against the untraced one *)
    l "trace.light_overhead_pct" "%" Lower;
    l "trace.heavy_overhead_pct" "%" Lower;
  ]

let find name =
  match List.find_opt (fun m -> m.name = name) (end_to_end @ per_layer) with
  | Some m -> m
  | None -> invalid_arg ("Ledger.find: unknown metric " ^ name)

(* One line of the human-readable report: a metric by the name the
   workload's own vocabulary gives it, with unit and sample count. *)
type row = { label : string; value : float option; unit_ : string; samples : int }

let row ?(samples = 1) label unit_ value = { label; value; unit_; samples }

(* The highest percentile above the median that has ten samples beyond
   it, if any. *)
let tail_row label ~unit_ ~scale a =
  let n = Array.length a in
  match Bstats.tail_percentile n with
  | Some p when p > 50. ->
      [ row ~samples:n (Printf.sprintf "%s tail p%g" label p) unit_ (Some (scale *. Bstats.percentile a p)) ]
  | _ -> []

(* A timing: median plus the highest supported tail. *)
let timing_rows label ~unit_ ~scale a =
  let n = Array.length a in
  let med = if n = 0 then None else Some (scale *. Bstats.median a) in
  row ~samples:n (label ^ " p50") unit_ med :: tail_row label ~unit_ ~scale a

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** emitted on the last line *)
  rows : row list;  (** printed above it *)
  facts : Util.Json.t;
  gates : (string * bool) list;  (** correctness gates, by name *)
}

let print_rows rows =
  List.iter
    (fun r ->
      let v =
        match r.value with
        | Some v -> Printf.sprintf "%14.6g" v
        | None -> Printf.sprintf "%14s" "n/a"
      in
      Printf.printf "  %-34s %s %-6s n=%d\n" r.label v r.unit_ r.samples)
    rows

let metric_json (name, v) =
  let m = find name in
  (name, Util.Json.Obj [ ("value", Util.Json.Float v); ("unit", Util.Json.String m.unit_) ])

(* The run's result: human lines first, the JSON object last. Metrics
   are checked against the expected set so a missing or stray name is a
   bug here, not a surprise downstream. *)
let emit ~trace o =
  let expected = List.map (fun m -> m.name) (if trace then per_layer else end_to_end) in
  let got = List.map fst o.metrics in
  if List.sort compare expected <> List.sort compare got then
    failwith
      (Printf.sprintf "metric set mismatch: expected [%s], got [%s]" (String.concat "," expected)
         (String.concat "," got));
  Printf.printf "# facts %s\n" (Util.Json.to_string o.facts);
  Printf.printf "# operations attempted=%d succeeded=%d failed=%d\n" o.attempted (o.attempted - o.failed) o.failed;
  List.iter (fun (g, ok) -> Printf.printf "# gate %-48s %s\n" g (if ok then "ok" else "FAILED")) o.gates;
  print_rows o.rows;
  let ordered = List.map (fun n -> (n, List.assoc n o.metrics)) expected in
  List.iter
    (fun (n, v) -> if not (Float.is_finite v) then failwith (Printf.sprintf "metric %s is %f" n v))
    ordered;
  let line =
    Util.Json.Obj
      [
        ("correct", Util.Json.Bool o.correct);
        ("attempted", Util.Json.Int o.attempted);
        ("failed", Util.Json.Int o.failed);
        ("metrics", Util.Json.Obj (List.map metric_json ordered));
      ]
  in
  print_endline (Util.Json.to_string line)
