(* Workload generators. Everything the programs under test receive is
   made here from the workload seed: the same seed gives the same query
   list (and digest), another seed another list. *)

module P = Serve.Protocol

(* The 2-input, 4-hidden network of the E20/E21 benches: solves in
   milliseconds, and its certified answers carry DRUP proofs of a few
   hundred KB — the codec-heavy shape. *)
let e20_net () =
  Nn.Qnet.create
    [|
      {
        Nn.Qnet.weights = [| [| 31; -22 |]; [| -13; 41 |]; [| 17; 9 |]; [| -25; 14 |] |];
        bias = [| 55; -31; 12; -7 |];
        act = Nn.Qnet.Relu;
      };
      {
        Nn.Qnet.weights = [| [| 21; -33; 11; -9 |]; [| -20; 31; -12; 10 |] |];
        bias = [| 13; 0 |];
        act = Nn.Qnet.Identity;
      };
    |]

type target = Paper | E20

(* One generated query and the network it is asked against. *)
type item = { target : target; query : P.query }

type kind = Plain | Cert | Count

let kind_of (q : P.query) =
  match q with
  | P.Exists_flip _ | P.Tolerance _ | P.Sensitivity _ -> Plain
  | P.Certify _ -> Cert
  | P.Count _ -> Count

let kind_name = function Plain -> "plain" | Cert -> "cert" | Count -> "count"

let target_name = function Paper -> "paper" | E20 -> "e20"

let cascade = Fannet.Backend.default_cascade

let sym d ~bias = Fannet.Noise.symmetric ~delta:d ~bias_noise:bias

(* Hot certified shapes: the E20 bench's certify query plus one more
   input of the same reply size (about 250 KB encoded, ~15 ms to solve):
   the reply is codec-heavy, the computation small. *)
let hot_cert_delta = 8
let hot_cert_inputs = [ [| 112; 87 |]; [| 100; 80 |] ]

(* Cold certified and counted queries at random inputs: at ±3 a
   certified answer (a refutation with a DRUP proof, ~250 KB) takes
   50-90 ms to solve and about as long to re-check, an exact count
   90-130 ms. Wider ranges cost several times more, and a run would
   no longer collect the hundred certified replies a p90 needs. *)
let cold_delta = 3

(* The hot set: six plain shapes on the paper net at analysis inputs the
   seed picks, and the two certified shapes on the E20 net. Distinct by
   construction. *)
let hot_set ~seed ~(paper_inputs : Fannet.Validate.labelled array) =
  let rng = Util.Rng.create seed in
  let pick () = Util.Rng.pick rng paper_inputs in
  let e20 = e20_net () in
  let plain =
    [
      (let input, label = pick () in
       P.Exists_flip { backend = cascade; spec = sym 5 ~bias:true; input; label });
      (let input, label = pick () in
       P.Exists_flip { backend = cascade; spec = sym 10 ~bias:true; input; label });
      (let input, label = pick () in
       P.Tolerance { backend = cascade; bias_noise = true; max_delta = 20; input; label });
      (let input, label = pick () in
       P.Tolerance { backend = cascade; bias_noise = true; max_delta = 40; input; label });
      (let input, label = pick () in
       P.Sensitivity { spec = sym 10 ~bias:true; input; label });
      (let input, label = pick () in
       P.Sensitivity { spec = sym 15 ~bias:true; input; label });
    ]
  in
  let cert =
    List.map
      (fun input ->
        P.Certify { spec = sym hot_cert_delta ~bias:false; input; label = Nn.Qnet.predict e20 input })
      hot_cert_inputs
  in
  Array.of_list
    (List.map (fun query -> { target = Paper; query }) plain
    @ List.map (fun query -> { target = E20; query }) cert)

(* A copy of a paper analysis input with every gene moved by up to ±5 %,
   labelled with the paper net's own prediction on it. *)
let jitter rng paper_net (input, _) =
  let x =
    Array.map
      (fun v ->
        let span = max 1 (abs v / 20) in
        v + Util.Rng.int_in rng (-span) span)
      input
  in
  (x, Nn.Qnet.predict paper_net x)

(* Stratified draws, so every seed sees the same mix of input costs:
   [round_robin rng a] cycles through a seeded permutation of [a],
   reshuffled after each pass. *)
let round_robin rng a =
  let order = Array.copy a and i = ref 0 in
  Util.Rng.shuffle rng order;
  fun () ->
    if !i = Array.length order then begin
      Util.Rng.shuffle rng order;
      i := 0
    end;
    incr i;
    order.(!i - 1)

(* E20 inputs: a uniform point in each cell of an 8 x 8 grid over
   [0, 127]^2, cells in round-robin order. *)
let e20_inputs rng =
  let cells = Array.init 64 (fun c -> (c / 8, c mod 8)) in
  let next = round_robin rng cells in
  fun () ->
    let cx, cy = next () in
    [| (16 * cx) + Util.Rng.int rng 16; (16 * cy) + Util.Rng.int rng 16 |]

(* The cold list: every query distinct, in a fixed interleaving — half
   plain cascade tolerance searches (max ±40) on the paper net at
   jittered copies of the analysis inputs (each input in turn), a quarter
   certified exists-flip and a quarter uncertified exact counts on the
   E20 net at grid-stratified random inputs.

   The plain half is all tolerance searches: an exists-flip query on
   these inputs is settled by the interval prefilter in microseconds,
   so mixing the two puts the plain median between two modes three
   orders of magnitude apart. *)
let cold_list ~seed ~paper_net ~(paper_inputs : Fannet.Validate.labelled array) ~n =
  let rng = Util.Rng.create (seed lxor 0x5eed) in
  let e20 = e20_net () in
  let next_paper = round_robin rng paper_inputs and next_cert = e20_inputs rng and next_count = e20_inputs rng in
  let seen = Hashtbl.create n in
  let rec fresh make =
    let it = make () in
    let key = target_name it.target ^ P.query_key ~digest:"" it.query in
    if Hashtbl.mem seen key then fresh make
    else begin
      Hashtbl.add seen key ();
      it
    end
  in
  let e20_query input mk = { target = E20; query = mk ~input ~label:(Nn.Qnet.predict e20 input) } in
  Array.init n (fun i ->
      fresh (fun () ->
          match i mod 4 with
          | 0 | 2 ->
              let input, label = jitter rng paper_net (next_paper ()) in
              {
                target = Paper;
                query = P.Tolerance { backend = cascade; bias_noise = true; max_delta = 40; input; label };
              }
          | 1 ->
              e20_query (next_cert ()) (fun ~input ~label ->
                  P.Certify { spec = sym cold_delta ~bias:false; input; label })
          | _ ->
              e20_query (next_count ()) (fun ~input ~label ->
                  P.Count
                    { spec = sym cold_delta ~bias:false; input; label; mode = P.Count_exact { certify = false } })))

(* Digest of a generated list: the canonical keys in order. *)
let digest (items : item array) =
  let buf = Buffer.create 4096 in
  Array.iter
    (fun it ->
      Buffer.add_string buf (target_name it.target);
      Buffer.add_string buf (P.query_key ~digest:"" it.query);
      Buffer.add_char buf '\n')
    items;
  Digest.to_hex (Digest.string (Buffer.contents buf))
