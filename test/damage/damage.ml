let flip bytes i =
  String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 0x5a) else c) bytes

let variants bytes =
  let len = String.length bytes in
  let header = match String.index_opt bytes '\n' with Some nl -> nl + 1 | None -> len in
  let cut n = (Printf.sprintf "cut to %d of %d bytes" n len, String.sub bytes 0 n) in
  let flip i = (Printf.sprintf "byte %d of %d flipped" i len, flip bytes i) in
  let spaced lo hi =
    let n = hi - lo in
    let k = min n 40 in
    List.init k (fun i -> lo + (i * n / k))
  in
  List.map cut [ 0; header; len / 2; len - 1 ] @ List.map flip (spaced 0 header @ spaced header len)

let read path = In_channel.with_open_bin path In_channel.input_all
let write path bytes = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes)
