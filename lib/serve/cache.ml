(* Entries and the index are Mf_util.Snapshot files: a header line
   [<magic> <hex payload digest>], then the payload.  An entry that fails
   the check is corruption: delete, count, miss.  An index that fails it
   degrades to a directory scan. *)

module Snapshot = Mf_util.Snapshot

let magic = "mfdft-serve-cache-v1"
let index_magic = "mfdft-serve-cache-index-v2"

type stats = {
  mem_hits : int;
  disk_hits : int;
  misses : int;
  stores : int;
  evictions : int;
  corrupt : int;
}

type t = {
  mem : (string, string) Mf_util.Lru.t;
  disk : (string, unit) Mf_util.Lru.t option; (* recency bookkeeping only *)
  dir : string option;
  lock : Mutex.t;
  mutable mem_hits : int;
  mutable disk_hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable evictions : int;
  mutable corrupt : int;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let entry_path dir fp = Filename.concat dir (fp ^ ".res")
let index_path dir = Filename.concat dir "index"

(* fingerprints are hex digests; refuse anything that could escape the
   cache directory *)
let valid_fp fp =
  fp <> "" && String.for_all (function 'a' .. 'f' | '0' .. '9' -> true | _ -> false) fp

let load_index dir disk =
  match Snapshot.read ~magic:index_magic (index_path dir) with
  | Error _ -> false
  | Ok text ->
    (* stored most-recent-first; insert oldest first so LRU order matches *)
    List.rev (String.split_on_char '\n' text)
    |> List.iter (fun fp ->
        if valid_fp fp && Sys.file_exists (entry_path dir fp) then
          ignore (Mf_util.Lru.add disk fp ()));
    true

let scan_dir dir disk =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | files ->
    Array.sort compare files;
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".res" then begin
          let fp = Filename.chop_suffix f ".res" in
          if valid_fp fp then ignore (Mf_util.Lru.add disk fp ())
        end)
      files

let create ?(mem_capacity = 256) ?(disk_capacity = 4096) ?dir () =
  let disk =
    match dir with
    | None -> None
    | Some d ->
      if not (Sys.file_exists d) then Sys.mkdir d 0o755;
      Snapshot.clear_tmp d;
      let disk = Mf_util.Lru.create ~capacity:disk_capacity in
      if not (load_index d disk) then scan_dir d disk;
      Some disk
  in
  {
    mem = Mf_util.Lru.create ~capacity:mem_capacity;
    disk;
    dir;
    lock = Mutex.create ();
    mem_hits = 0;
    disk_hits = 0;
    misses = 0;
    stores = 0;
    evictions = 0;
    corrupt = 0;
  }

let read_entry t dir fp =
  let path = entry_path dir fp in
  match Snapshot.read ~magic path with
  | Ok payload -> Some payload
  | Error Snapshot.Missing -> None
  | Error (Snapshot.Corrupt | Snapshot.Wrong_magic) ->
    t.corrupt <- t.corrupt + 1;
    (try Sys.remove path with Sys_error _ -> ());
    (match t.disk with Some disk -> Mf_util.Lru.remove disk fp | None -> ());
    None

let find t fp =
  locked t @@ fun () ->
  match Mf_util.Lru.find t.mem fp with
  | Some payload ->
    t.mem_hits <- t.mem_hits + 1;
    Some payload
  | None -> (
    match (t.dir, t.disk) with
    | Some dir, Some disk when Mf_util.Lru.mem disk fp -> (
      match read_entry t dir fp with
      | Some payload ->
        t.disk_hits <- t.disk_hits + 1;
        ignore (Mf_util.Lru.find disk fp); (* refresh disk recency *)
        ignore (Mf_util.Lru.add t.mem fp payload); (* promote *)
        Some payload
      | None ->
        t.misses <- t.misses + 1;
        None)
    | _ ->
      t.misses <- t.misses + 1;
      None)

let save_index_unlocked t =
  match (t.dir, t.disk) with
  | Some dir, Some disk ->
    let fps = List.map fst (Mf_util.Lru.to_list disk) in
    Snapshot.write ~magic:index_magic (index_path dir) (String.concat "\n" fps)
  | _ -> ()

let store t ~fingerprint payload =
  locked t @@ fun () ->
  t.stores <- t.stores + 1;
  ignore (Mf_util.Lru.add t.mem fingerprint payload);
  match (t.dir, t.disk) with
  | Some dir, Some disk ->
    Snapshot.write ~magic (entry_path dir fingerprint) payload;
    (match Mf_util.Lru.add disk fingerprint () with
     | None -> ()
     | Some (evicted_fp, ()) ->
       t.evictions <- t.evictions + 1;
       (try Sys.remove (entry_path dir evicted_fp) with Sys_error _ -> ()))
  | _ -> ()

let flush t = locked t (fun () -> save_index_unlocked t)

let stats t =
  locked t @@ fun () ->
  {
    mem_hits = t.mem_hits;
    disk_hits = t.disk_hits;
    misses = t.misses;
    stores = t.stores;
    evictions = t.evictions;
    corrupt = t.corrupt;
  }

let entries t =
  locked t @@ fun () ->
  match t.disk with Some disk -> Mf_util.Lru.length disk | None -> Mf_util.Lru.length t.mem
