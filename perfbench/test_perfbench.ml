(* The benchmark's own tests: the generator is a pure function of the
   seed, the percentile helper only reports supported tails, the printed
   vocabulary matches BENCHMARK.json, and the reply-bytes comparison the
   serve-hot gate uses ignores nothing but the request id. *)

open Perfbench

let inputs =
  [| ([| 112; 87 |], 0); ([| 40; 90 |], 1); ([| 64; 64 |], 0); ([| 10; 120 |], 1) |]
  |> Array.map (fun (x, _) -> (x, Nn.Qnet.predict (Gen.e20_net ()) x))

let cold seed = Gen.cold_list ~seed ~paper_net:(Gen.e20_net ()) ~paper_inputs:inputs ~n:200

let test_generator () =
  Alcotest.(check string) "cold: same seed, same digest" (Gen.digest (cold 5)) (Gen.digest (cold 5));
  Alcotest.(check bool) "cold: other seed, other digest" true (Gen.digest (cold 5) <> Gen.digest (cold 6));
  let hot seed = Gen.digest (Gen.hot_set ~seed ~paper_inputs:inputs) in
  Alcotest.(check string) "hot: same seed, same digest" (hot 5) (hot 5);
  Alcotest.(check bool) "hot: other seed, other digest" true (hot 5 <> hot 6)

let test_cold_mix () =
  let items = cold 1 in
  let keys =
    Array.map (fun (it : Gen.item) -> Gen.target_name it.target ^ Serve.Protocol.query_key ~digest:"" it.query) items
  in
  let distinct = List.sort_uniq compare (Array.to_list keys) in
  Alcotest.(check int) "every cold query distinct" (Array.length items) (List.length distinct);
  let share k =
    Array.fold_left (fun acc (it : Gen.item) -> if Gen.kind_of it.query = k then acc + 1 else acc) 0 items
  in
  Alcotest.(check (list int)) "half plain, a quarter cert, a quarter count" [ 100; 50; 50 ]
    [ share Gen.Plain; share Gen.Cert; share Gen.Count ]

let test_percentiles () =
  let tail n = Bstats.tail_percentile n in
  Alcotest.(check (option (float 0.))) "1000 samples support p99" (Some 99.) (tail 1000);
  Alcotest.(check (option (float 0.))) "999 samples fall back to p95" (Some 95.) (tail 999);
  Alcotest.(check (option (float 0.))) "100 samples support p90" (Some 90.) (tail 100);
  Alcotest.(check (option (float 0.))) "99 samples fall back to p75" (Some 75.) (tail 99);
  Alcotest.(check (option (float 0.))) "20 samples support the median" (Some 50.) (tail 20);
  Alcotest.(check (option (float 0.))) "19 samples support nothing" None (tail 19);
  let a = Array.init 100 float_of_int in
  Alcotest.(check (option (float 1e-9))) "p90 of 0..99" (Some 89.1) (Bstats.supported a 90.);
  Alcotest.(check (option (float 0.))) "no p99 from 100 samples" None (Bstats.supported a 99.)

let string_field k j =
  match Util.Json.member k j with Some (Util.Json.String s) -> s | _ -> Alcotest.fail ("missing " ^ k)

let test_vocabulary () =
  let spec =
    match Util.Json.parse_file "../BENCHMARK.json" with Ok j -> j | Error e -> Alcotest.fail e
  in
  let listed key =
    match Util.Json.member key spec with
    | Some (Util.Json.List l) ->
        List.map
          (fun j ->
            let bound = match Util.Json.member "bound" j with Some (Util.Json.Float f) -> Some f | _ -> None in
            (string_field "name" j, string_field "unit" j, string_field "better" j, bound))
          l
    | _ -> Alcotest.fail ("missing " ^ key)
  in
  let ours ms =
    List.map
      (fun (m : Ledger.metric) ->
        (m.name, m.unit_, (match m.better with Ledger.Lower -> "lower" | Ledger.Higher -> "higher"), m.bound))
      ms
  in
  let t = Alcotest.(list (pair string (pair string (pair string (option (float 0.)))))) in
  let flat = List.map (fun (a, b, c, d) -> (a, (b, (c, d)))) in
  Alcotest.check t "end_to_end" (flat (listed "end_to_end")) (flat (ours Ledger.end_to_end));
  Alcotest.check t "per_layer" (flat (listed "per_layer")) (flat (ours Ledger.per_layer))

let test_reply_tail () =
  let answer = Serve.Protocol.Verdict Fannet.Backend.Robust in
  let enc rid = Serve.Protocol.encode_reply { rid; reply = Serve.Protocol.Answer { cached = true; answer } } in
  let r1 = enc 1 and r2 = enc 12345 in
  let tail s = String.sub s (Serving.after_id s) (String.length s - Serving.after_id s) in
  Alcotest.(check bool) "same answer, other id" true (Serving.same_tail r2 ~reference:(tail r1));
  let other = Serve.Protocol.encode_reply { rid = 1; reply = Serve.Protocol.Answer { cached = false; answer } } in
  Alcotest.(check bool) "the cached flag counts" false (Serving.same_tail other ~reference:(tail r1))

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "generator is a function of the seed" `Quick test_generator;
          Alcotest.test_case "cold list is distinct and mixed" `Quick test_cold_mix;
          Alcotest.test_case "percentile helper" `Quick test_percentiles;
          Alcotest.test_case "names and units match BENCHMARK.json" `Quick test_vocabulary;
          Alcotest.test_case "reply bytes after the id" `Quick test_reply_tail;
        ] );
    ]
