(* In-memory span recorder for the traced run.

   A span is recorded by the benchmark around one call into a layer of
   the program: name, start, end, the span that caused it and the request
   it belongs to. Nothing is written while the workload runs; [dump]
   writes the lot at the end. The program itself is not instrumented —
   only calls made from this directory are spanned. Recording is off
   unless [enable] was called, so an untraced run pays one atomic read
   per call site. *)

type span = {
  id : int;
  parent : int;  (** 0 = root *)
  rid : int;  (** request id; 0 when the span belongs to no request *)
  name : string;
  start_ns : int64;
  end_ns : int64;
}

let on = Atomic.make false
let next_id = Atomic.make 1
let lock = Mutex.create ()
let recorded : span list ref = ref []

(* The innermost open span of the current domain, so nested calls find
   their parent without threading it through every signature. *)
let current : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let enable () = Atomic.set on true

let with_ ?(rid = 0) name f =
  if not (Atomic.get on) then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = Domain.DLS.get current in
    Domain.DLS.set current id;
    let start_ns = Obs.Clock.now_ns () in
    let finish () =
      let end_ns = Obs.Clock.now_ns () in
      Domain.DLS.set current parent;
      Mutex.lock lock;
      recorded := { id; parent; rid; name; start_ns; end_ns } :: !recorded;
      Mutex.unlock lock
    in
    Fun.protect ~finally:finish f
  end

let all () =
  Mutex.lock lock;
  let l = !recorded in
  Mutex.unlock lock;
  List.rev l

let duration_s s = Int64.to_float (Int64.sub s.end_ns s.start_ns) /. 1e9

(* Durations of every span with this name, in seconds, in start order. *)
let durations name =
  all ()
  |> List.filter (fun s -> s.name = name)
  |> List.map duration_s |> Array.of_list

let to_json () =
  let open Util.Json in
  List
    (List.map
       (fun s ->
         Obj
           [
             ("id", Int s.id);
             ("parent", Int s.parent);
             ("rid", Int s.rid);
             ("name", String s.name);
             ("start_ns", String (Int64.to_string s.start_ns));
             ("end_ns", String (Int64.to_string s.end_ns));
           ])
       (all ()))

let dump path = Util.Json.write_file path (to_json ())
