(* Memory is a Bounded_cache; disk is one Marshal blob per key.  The
   Bounded_cache counts a disk hit as a miss, so [stats] moves it. *)

type stats = {
  hits : int;
  misses : int;
  disk_hits : int;
  stores : int;
  evictions : int;
}

module type CONFIG = sig
  type value

  val env_var : string
  val prefix : string
  val suffix : string
  val version : int
  val limit : int
end

module type S = sig
  type value

  type nonrec stats = stats = {
    hits : int;
    misses : int;
    disk_hits : int;
    stores : int;
    evictions : int;
  }

  val env_var : string
  val version : int
  val limit : int
  val dir : unit -> string option
  val path : string -> string option
  val find : string -> value option
  val find_or_compile : string -> (unit -> value) -> value
  val peek : string -> value option
  val mem : string -> bool
  val on_disk : string -> bool
  val store : string -> value -> unit
  val stats : unit -> stats
  val clear : unit -> unit
  val disk_entries : unit -> string list
  val clear_disk : unit -> int
end

module Make (C : CONFIG) = struct
  type value = C.value

  type nonrec stats = stats = {
    hits : int;
    misses : int;
    disk_hits : int;
    stores : int;
    evictions : int;
  }

  let env_var = C.env_var
  let version = C.version
  let limit = C.limit
  let table : (string, value) Bounded_cache.t = Bounded_cache.create ~limit
  let disk_hits = Atomic.make 0
  let stores = Atomic.make 0

  let stats () =
    let { Bounded_cache.hits; misses; evictions; _ } =
      Bounded_cache.stats table
    in
    let disk_hits = Atomic.get disk_hits in
    { hits; misses = misses - disk_hits; disk_hits; stores = Atomic.get stores;
      evictions }

  let clear () =
    Bounded_cache.clear table;
    Atomic.set disk_hits 0;
    Atomic.set stores 0

  let dir () =
    match Sys.getenv_opt env_var with None | Some "" -> None | d -> d

  let path key =
    Option.map (fun d -> Filename.concat d (C.prefix ^ key ^ C.suffix)) (dir ())

  let read key =
    match Option.map open_in_bin (path key) with
    | None | (exception Sys_error _) -> None
    | Some ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            match Marshal.from_channel ic with
            | v, (x : value) when v = version -> Some x
            | _ | (exception _) -> None)

  let write key (x : value) =
    match path key with
    | None -> ()
    | Some path -> (
        let d = Filename.dirname path in
        match
          if not (Sys.file_exists d) then Sys.mkdir d 0o755;
          Filename.temp_file ~temp_dir:d (Filename.basename path ^ ".tmp.") ""
        with
        | exception Sys_error _ -> ()
        | tmp -> (
            try
              let oc = open_out_bin tmp in
              Fun.protect
                ~finally:(fun () -> close_out_noerr oc)
                (fun () ->
                  Marshal.to_channel oc (version, x) [];
                  close_out oc);
              Sys.rename tmp path
            with Sys_error _ -> ( try Sys.remove tmp with Sys_error _ -> ())))

  let find key =
    match Bounded_cache.find table key with
    | Some _ as hit -> hit
    | None ->
        let r = read key in
        Option.iter
          (fun x ->
            Atomic.incr disk_hits;
            Bounded_cache.put table key x)
          r;
        r

  let find_or_compile key compute =
    match find key with
    | Some x -> x
    | None ->
        let x = compute () in
        Bounded_cache.put table key x;
        write key x;
        x

  let peek key =
    match Bounded_cache.peek table key with Some _ as v -> v | None -> read key

  let mem key = Bounded_cache.peek table key <> None
  let on_disk key = Option.fold ~none:false ~some:Sys.file_exists (path key)

  let store key x =
    Atomic.incr stores;
    Bounded_cache.put table key x;
    write key x

  let disk_entries () =
    match Option.map Sys.readdir (dir ()) with
    | None | (exception Sys_error _) -> []
    | Some fs ->
        Array.to_list fs
        |> List.filter (fun f ->
               String.starts_with ~prefix:C.prefix f
               && Filename.check_suffix f C.suffix)
        |> List.sort compare

  let clear_disk () =
    match dir () with
    | None -> 0
    | Some d ->
        List.fold_left
          (fun n f ->
            match Sys.remove (Filename.concat d f) with
            | () -> n + 1
            | exception Sys_error _ -> n)
          0 (disk_entries ())
end
