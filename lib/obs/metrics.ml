let on = Atomic.make false

let enabled () = Atomic.get on

let set_enabled b = Atomic.set on b

(* Shard count: power of two so shard selection is a mask. Two live
   domains whose ids collide modulo [n_shards] share a shard, which is
   still correct — counter cells are atomic and histogram shards carry a
   mutex — just marginally more contended. *)
let n_shards = 16

let shard_id () = (Domain.self () :> int) land (n_shards - 1)

type counter = { c_name : string; cells : int Atomic.t array }

type gauge = { g_name : string; value : float Atomic.t }

(* One histogram shard: a plain record behind a mutex. The lock is
   per-shard and almost always uncontended (each domain hashes to its own
   shard), so [observe] stays cheap without per-bucket atomics. *)
type hshard = {
  lock : Mutex.t;
  mutable counts : int array;
  mutable overflow : int;
  mutable nan_count : int;
  mutable hcount : int;
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
}

type histogram = { h_name : string; buckets : float array; shards : hshard array }

type histogram_view = {
  buckets : float array;
  counts : int array;
  overflow : int;
  nan_count : int;
  count : int;
  sum : float;
  vmin : float;
  vmax : float;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

(* Registry: creation and snapshot are rare, so one mutex suffices. *)
let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

let registry_lock = Mutex.create ()

let with_registry f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let get_or_create name ~kind ~make ~cast =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> (
          match cast m with
          | Some v -> v
          | None ->
              invalid_arg
                (Printf.sprintf "Obs.Metrics: %S is already a different metric kind (wanted %s)"
                   name kind))
      | None ->
          let v = make () in
          Hashtbl.add registry name v;
          match cast v with Some v -> v | None -> assert false)

let counter name =
  get_or_create name ~kind:"counter"
    ~make:(fun () ->
      Counter { c_name = name; cells = Array.init n_shards (fun _ -> Atomic.make 0) })
    ~cast:(function Counter c -> Some c | Gauge _ | Histogram _ -> None)

let add c n =
  if Atomic.get on then
    ignore (Atomic.fetch_and_add c.cells.(shard_id ()) n)

let incr c = add c 1

let counter_value c = Array.fold_left (fun acc cell -> acc + Atomic.get cell) 0 c.cells

let gauge name =
  get_or_create name ~kind:"gauge"
    ~make:(fun () -> Gauge { g_name = name; value = Atomic.make Float.nan })
    ~cast:(function Gauge g -> Some g | Counter _ | Histogram _ -> None)

let set_gauge g v = if Atomic.get on then Atomic.set g.value v

let gauge_value g = Atomic.get g.value

let default_buckets =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 0.5; 1.; 5.; 30.; 120. |]

let fresh_hshard nbuckets =
  {
    lock = Mutex.create ();
    counts = Array.make nbuckets 0;
    overflow = 0;
    nan_count = 0;
    hcount = 0;
    sum = 0.;
    vmin = Float.nan;
    vmax = Float.nan;
  }

let histogram ?(buckets = default_buckets) name =
  if Array.length buckets = 0 then invalid_arg "Obs.Metrics.histogram: no buckets";
  Array.iteri
    (fun i b ->
      if Float.is_nan b || (i > 0 && b <= buckets.(i - 1)) then
        invalid_arg "Obs.Metrics.histogram: buckets must be strictly increasing")
    buckets;
  get_or_create name ~kind:"histogram"
    ~make:(fun () ->
      Histogram
        {
          h_name = name;
          buckets = Array.copy buckets;
          shards = Array.init n_shards (fun _ -> fresh_hshard (Array.length buckets));
        })
    ~cast:(function Histogram h -> Some h | Counter _ | Gauge _ -> None)

let observe h x =
  if Atomic.get on then begin
    let sh = h.shards.(shard_id ()) in
    Mutex.lock sh.lock;
    sh.hcount <- sh.hcount + 1;
    if Float.is_nan x then sh.nan_count <- sh.nan_count + 1
    else begin
      sh.sum <- sh.sum +. x;
      if Float.is_nan sh.vmin || x < sh.vmin then sh.vmin <- x;
      if Float.is_nan sh.vmax || x > sh.vmax then sh.vmax <- x;
      (* Linear scan: bucket arrays are small (~a dozen bounds) and the
         scan beats binary search at that size. *)
      let n = Array.length h.buckets in
      let rec place i =
        if i >= n then sh.overflow <- sh.overflow + 1
        else if x <= h.buckets.(i) then sh.counts.(i) <- sh.counts.(i) + 1
        else place (i + 1)
      in
      place 0
    end;
    Mutex.unlock sh.lock
  end

let histogram_view (h : histogram) =
  let nb = Array.length h.buckets in
  let acc =
    {
      buckets = Array.copy h.buckets;
      counts = Array.make nb 0;
      overflow = 0;
      nan_count = 0;
      count = 0;
      sum = 0.;
      vmin = Float.nan;
      vmax = Float.nan;
    }
  in
  Array.fold_left
    (fun acc sh ->
      Mutex.lock sh.lock;
      let r =
        {
          acc with
          counts = Array.mapi (fun i c -> c + sh.counts.(i)) acc.counts;
          overflow = acc.overflow + sh.overflow;
          nan_count = acc.nan_count + sh.nan_count;
          count = acc.count + sh.hcount;
          sum = acc.sum +. sh.sum;
          vmin =
            (if Float.is_nan acc.vmin then sh.vmin
             else if Float.is_nan sh.vmin then acc.vmin
             else Float.min acc.vmin sh.vmin);
          vmax =
            (if Float.is_nan acc.vmax then sh.vmax
             else if Float.is_nan sh.vmax then acc.vmax
             else Float.max acc.vmax sh.vmax);
        }
      in
      Mutex.unlock sh.lock;
      r)
    acc h.shards

let reset () =
  with_registry (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | Counter c -> Array.iter (fun cell -> Atomic.set cell 0) c.cells
          | Gauge g -> Atomic.set g.value Float.nan
          | Histogram h ->
              Array.iter
                (fun sh ->
                  Mutex.lock sh.lock;
                  Array.fill sh.counts 0 (Array.length sh.counts) 0;
                  sh.overflow <- 0;
                  sh.nan_count <- 0;
                  sh.hcount <- 0;
                  sh.sum <- 0.;
                  sh.vmin <- Float.nan;
                  sh.vmax <- Float.nan;
                  Mutex.unlock sh.lock)
                h.shards)
        registry)

let sorted_metrics () =
  with_registry (fun () ->
      Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Unset (NaN) and overflowed (infinite) values have no JSON spelling. *)
let float_or_null f = if Float.is_finite f then Util.Json.Float f else Util.Json.Null

let snapshot () =
  let metrics = sorted_metrics () in
  let pick f = List.filter_map f metrics in
  Util.Json.Obj
    [
      ( "counters",
        Util.Json.Obj
          (pick (function
            | name, Counter c -> Some (name, Util.Json.Int (counter_value c))
            | _ -> None)) );
      ( "gauges",
        Util.Json.Obj
          (pick (function
            | name, Gauge g -> Some (name, float_or_null (gauge_value g))
            | _ -> None)) );
      ( "histograms",
        Util.Json.Obj
          (pick (function
            | name, Histogram h ->
                let v = histogram_view h in
                Some
                  ( name,
                    Util.Json.Obj
                      [
                        ( "buckets",
                          Util.Json.List
                            (Array.to_list (Array.map (fun b -> Util.Json.Float b) v.buckets))
                        );
                        ( "counts",
                          Util.Json.List
                            (Array.to_list (Array.map (fun c -> Util.Json.Int c) v.counts)) );
                        ("overflow", Util.Json.Int v.overflow);
                        ("nan", Util.Json.Int v.nan_count);
                        ("count", Util.Json.Int v.count);
                        ("sum", float_or_null v.sum);
                        ("min", float_or_null v.vmin);
                        ("max", float_or_null v.vmax);
                      ] )
            | _ -> None)) );
    ]

let text_report () =
  let buf = Buffer.create 512 in
  List.iter
    (fun (name, m) ->
      match m with
      | Counter c -> Buffer.add_string buf (Printf.sprintf "%-40s %d\n" name (counter_value c))
      | Gauge g ->
          let v = gauge_value g in
          Buffer.add_string buf
            (Printf.sprintf "%-40s %s\n" name
               (if Float.is_nan v then "unset" else Printf.sprintf "%g" v))
      | Histogram h ->
          let v = histogram_view h in
          if v.count = 0 then
            Buffer.add_string buf (Printf.sprintf "%-40s n=0\n" name)
          else
            let mean =
              if v.count - v.nan_count > 0 then
                v.sum /. float_of_int (v.count - v.nan_count)
              else Float.nan
            in
            Buffer.add_string buf
              (Printf.sprintf "%-40s n=%d mean=%g min=%g max=%g%s\n" name v.count mean
                 v.vmin v.vmax
                 (if v.nan_count > 0 then Printf.sprintf " nan=%d" v.nan_count else "")))
    (sorted_metrics ());
  Buffer.contents buf
