(* Host and process facts recorded with every result, and the process
   plumbing the serving workloads need. *)

let read_file path =
  match open_in_bin path with
  | ic ->
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      Some (really_input_string ic (in_channel_length ic))
  | exception Sys_error _ -> None

(* Lines of a /proc-style file; [in_channel_length] is 0 there, so read
   line by line. *)
let read_lines path =
  match open_in path with
  | ic ->
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      let rec go acc =
        match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
      in
      Some (go [])
  | exception Sys_error _ -> None

(* Peak resident set (VmHWM) of a live process, in MB. *)
let peak_rss_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  match read_lines path with
  | None -> nan
  | Some lines -> (
      match List.find_opt (fun l -> String.starts_with ~prefix:"VmHWM:" l) lines with
      | None -> nan
      | Some l -> (
          match
            String.split_on_char ' ' l |> List.filter (fun s -> s <> "")
          with
          | [ _; kb; _ ] -> float_of_string kb /. 1024.
          | _ -> nan))

(* Online CPUs this process may run on, as [nproc] reports them. *)
let nproc () =
  let ic = Unix.open_process_args_in "nproc" [| "nproc" |] in
  let n = try int_of_string_opt (String.trim (input_line ic)) with End_of_file -> None in
  ignore (Unix.close_process_in ic);
  match n with Some n when n > 0 -> n | _ -> Domain.recommended_domain_count ()

(* The commit when the checkout is a git work tree, else "none"; the
   source digest below identifies the code either way. *)
let git_commit () =
  let rec resolve ref_path =
    match read_file ref_path with
    | None -> None
    | Some s -> (
        let s = String.trim s in
        match String.index_opt s ' ' with
        | Some i when String.sub s 0 i = "ref:" ->
            resolve (Filename.concat ".git" (String.trim (String.sub s (i + 1) (String.length s - i - 1))))
        | _ -> Some s)
  in
  Option.value ~default:"none" (resolve ".git/HEAD")

(* Digest over the program's sources (lib/ and bin/, sorted paths), so
   two results name the code they measured even without git. *)
let source_digest () =
  let rec files dir =
    match Sys.readdir dir with
    | entries ->
        Array.sort compare entries;
        Array.to_list entries
        |> List.concat_map (fun e ->
               let p = Filename.concat dir e in
               if Sys.is_directory p then files p
               else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
                       || Filename.basename p = "dune"
               then [ p ]
               else [])
    | exception Sys_error _ -> []
  in
  let buf = Buffer.create 4096 in
  List.iter
    (fun p ->
      Buffer.add_string buf p;
      Buffer.add_string buf (Digest.to_hex (Digest.file p)))
    (files "lib" @ files "bin");
  Digest.to_hex (Digest.string (Buffer.contents buf))

let facts ~workload ~seed ~trace ~extra =
  let open Util.Json in
  Obj
    ([
       ("workload", String workload);
       ("seed", Int seed);
       ("trace", Bool trace);
       ("nproc", Int (nproc ()));
       ("recommended_domain_count", Int (Domain.recommended_domain_count ()));
       ("ocaml_version", String Sys.ocaml_version);
       ("git_commit", String (git_commit ()));
       ("source_digest", String (source_digest ()));
     ]
    @ extra)
