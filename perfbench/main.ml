(* perfbench: the repository benchmark.

     main.exe --workload paper-analysis|serve-hot|serve-cold
              --seed N --seconds S --trace 0|1

   Run from the repository root (the serving workloads start
   _build/default/bin/fannet_cli.exe, which run.sh builds first). Human
   lines — host facts, correctness gates, every metric by name with unit
   and sample count — come first; the last line is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are the end-to-end ones, with --trace 1 the per-layer ones.
   Exit 0 only when every correctness gate held. *)

let usage = "main.exe --workload W --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 2028 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "paper-analysis | serve-hot | serve-cold");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0 = end-to-end metrics, 1 = per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let trace = !trace = 1 in
  (* An interrupted run still stops the daemons it started (at_exit). *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130))) [ Sys.sigint; Sys.sigterm ];
  (* A daemon that dies mid-run must surface as a failed request (EPIPE),
     not kill the benchmark before it can stop the others. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let nproc = Perfbench.Host.nproc () in
  let outcome =
    match !workload with
    | "paper-analysis" ->
        fst (Perfbench.Analysis.run ~seed:!seed ~seconds:!seconds ~trace ~nproc)
    | "serve-hot" -> Perfbench.Serving.hot ~seed:!seed ~seconds:!seconds ~trace ~nproc
    | "serve-cold" -> Perfbench.Serving.cold ~seed:!seed ~seconds:!seconds ~trace ~nproc
    | w ->
        prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
        exit 2
  in
  if trace then begin
    let dir = Perfbench.Serving.work_dir () in
    Perfbench.Spans.dump
      (Filename.concat dir (Printf.sprintf "spans-%s-%d.json" !workload !seed))
  end;
  Perfbench.Ledger.emit ~trace outcome;
  exit (if outcome.correct then 0 else 1)
