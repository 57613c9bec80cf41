type error = Missing | Corrupt | Wrong_magic

let error_message = function
  | Missing -> "does not exist"
  | Corrupt -> "is corrupt or truncated"
  | Wrong_magic -> "was written for another format or version"

let write ~magic path payload =
  if String.contains magic ' ' || String.contains magic '\n' then
    invalid_arg "Snapshot.write: magic must not contain a space or a newline";
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  match
    Printf.fprintf oc "%s %s\n" magic (Digest.to_hex (Digest.string payload));
    output_string oc payload;
    flush oc;
    Unix.fsync (Unix.descr_of_out_channel oc)
  with
  | () ->
    close_out oc;
    Sys.rename tmp path
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let read ~magic path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> Error Missing
  | contents -> (
    match String.index_opt contents '\n' with
    | None -> Error Corrupt
    | Some nl -> (
      let payload = String.sub contents (nl + 1) (String.length contents - nl - 1) in
      match String.split_on_char ' ' (String.sub contents 0 nl) with
      | [ m; _ ] when m <> magic -> Error Wrong_magic
      | [ _; d ] when d = Digest.to_hex (Digest.string payload) -> Ok payload
      | _ -> Error Corrupt))

let save ~magic path v = write ~magic path (Marshal.to_string v [])

let load ~magic path =
  Result.bind (read ~magic path) (fun payload ->
      (* the digest matched, so these are the bytes [save] wrote; a failure
         here means another compiler or build wrote them under this magic *)
      match Marshal.from_string payload 0 with
      | v -> Ok v
      | exception (Failure _ | Invalid_argument _) -> Error Corrupt)

let clear_tmp dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | files ->
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".tmp" then
          try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      files
