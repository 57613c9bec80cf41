module Json = Mf_util.Json
module Codesign = Mfdft.Codesign

type source = Name of string | Text of string

type submit = {
  chip : source;
  assay : source;
  options : Fingerprint.options;
  priority : int;
  deadline : float option;
  wait : bool;
}

type request =
  | Ping
  | Fingerprint_of of { chip : source; assay : source; options : Fingerprint.options }
  | Submit of submit
  | Status of string
  | Result of string
  | Stats
  | Shutdown

let ( let* ) = Result.bind

let source_of_json name j =
  match Json.member name j with
  | None -> Error (Printf.sprintf "missing %S" name)
  | Some src -> (
    match (Json.str_field "name" src, Json.str_field "text" src) with
    | Some n, None -> Ok (Name n)
    | None, Some t -> Ok (Text t)
    | _ -> Error (Printf.sprintf "%S needs exactly one of \"name\" or \"text\"" name))

let options_of_json j =
  let d = Fingerprint.default_options in
  match Json.member "options" j with
  | None -> Ok d
  | Some o ->
    let* full =
      match Json.member "full" o with
      | None -> Ok d.Fingerprint.full
      | Some v -> (
        match Json.bool_of v with
        | Some b -> Ok b
        | None -> Error "\"full\" must be a boolean")
    in
    (match Json.member "seed" o with
     | None -> Ok { Fingerprint.full; seed = d.Fingerprint.seed }
     | Some v -> (
       match Json.int_of v with
       | Some seed -> Ok { Fingerprint.full; seed }
       | None -> Error "\"seed\" must be an integer"))

let submit_of_json j =
  let* chip = source_of_json "chip" j in
  let* assay = source_of_json "assay" j in
  let* options = options_of_json j in
  let priority = Option.value ~default:0 (Json.int_field "priority" j) in
  let* deadline =
    match Json.member "deadline" j with
    | None | Some Json.Null -> Ok None
    | Some v -> (
      match Json.num v with
      | Some s when s > 0. -> Ok (Some s)
      | Some _ -> Error "\"deadline\" must be positive seconds"
      | None -> Error "\"deadline\" must be a number")
  in
  let wait =
    match Json.member "wait" j with
    | Some v -> Option.value ~default:true (Json.bool_of v)
    | None -> true
  in
  Ok { chip; assay; options; priority; deadline; wait }

let fingerprint_needle j =
  match Json.str_field "fingerprint" j with
  | Some fp -> Ok fp
  | None -> Error "missing \"fingerprint\""

let parse_request line =
  let* j = Json.parse line in
  match Json.str_field "cmd" j with
  | None -> Error "missing \"cmd\""
  | Some "ping" -> Ok Ping
  | Some "fingerprint" ->
    let* chip = source_of_json "chip" j in
    let* assay = source_of_json "assay" j in
    let* options = options_of_json j in
    Ok (Fingerprint_of { chip; assay; options })
  | Some "submit" ->
    let* s = submit_of_json j in
    Ok (Submit s)
  | Some "status" ->
    let* fp = fingerprint_needle j in
    Ok (Status fp)
  | Some "result" ->
    let* fp = fingerprint_needle j in
    Ok (Result fp)
  | Some "stats" -> Ok Stats
  | Some "shutdown" -> Ok Shutdown
  | Some cmd -> Error (Printf.sprintf "unknown command %S" cmd)

let resolve_chip = function
  | Name n -> (
    match Mf_chips.Benchmarks.by_name n with
    | Some chip -> Ok chip
    | None ->
      Error
        (Printf.sprintf "unknown chip %S (benchmarks: %s)" n
           (String.concat ", " Mf_chips.Benchmarks.names)))
  | Text t -> Mf_arch.Chip_io.parse t

let resolve_assay = function
  | Name n -> (
    match Mf_bioassay.Assays.by_name n with
    | Some assay -> Ok assay
    | None ->
      Error
        (Printf.sprintf "unknown assay %S (assays: %s)" n
           (String.concat ", " Mf_bioassay.Assays.names)))
  | Text t -> Mf_bioassay.Assay_io.parse t

let source_to_json = function
  | Name n -> Json.obj [ ("name", Json.Str n) ]
  | Text t -> Json.obj [ ("text", Json.Str t) ]

let submit_to_json s =
  Json.obj
    [
      ("cmd", Json.Str "submit");
      ("chip", source_to_json s.chip);
      ("assay", source_to_json s.assay);
      ( "options",
        Json.obj
          [
            ("full", Json.Bool s.options.Fingerprint.full);
            ("seed", Json.Num (float_of_int s.options.Fingerprint.seed));
          ] );
      ("priority", Json.Num (float_of_int s.priority));
      ("wait", Json.Bool s.wait);
    ]

let payload_line ~fingerprint (r : Codesign.result) =
  let opt_int = function Some v -> Json.Num (float_of_int v) | None -> Json.Null in
  Json.to_line
    (Json.obj
       [
         ("ok", Json.Bool true);
         ("type", Json.Str "result");
         ("fingerprint", Json.Str fingerprint);
         ("result_digest", Json.Str (Fingerprint.result_digest r));
         ("chip", Json.Str (Mf_arch.Chip.name r.Codesign.shared));
         ("n_dft_valves", Json.Num (float_of_int r.Codesign.n_dft_valves));
         ("n_shared", Json.Num (float_of_int r.Codesign.n_shared));
         ("n_vectors_dft", Json.Num (float_of_int r.Codesign.n_vectors_dft));
         ("exec_original", opt_int r.Codesign.exec_original);
         ("exec_dft_unshared", opt_int r.Codesign.exec_dft_unshared);
         ("exec_dft_no_pso", opt_int r.Codesign.exec_dft_no_pso);
         ("exec_final", opt_int r.Codesign.exec_final);
         ("evaluations", Json.Num (float_of_int r.Codesign.evaluations));
         ("iterations", Json.Num (float_of_int (List.length r.Codesign.trace)));
         ( "degradations",
           Json.Arr
             (List.map
                (fun d -> Json.Str (Codesign.degradation_to_string d))
                r.Codesign.degradations) );
       ])

let error_line msg =
  Json.to_line (Json.obj [ ("ok", Json.Bool false); ("error", Json.Str msg) ])

let line_too_long_line ~limit =
  Json.to_line
    (Json.obj
       [
         ("ok", Json.Bool false);
         ("error", Json.Str (Printf.sprintf "request line longer than %d bytes" limit));
         ("code", Json.Str "line_too_long");
       ])
