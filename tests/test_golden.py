"""Golden transcript pins.

SHA-256 of the canonical transcript lines (``harness.transcript_lines``)
over a fixed matrix: every task x {MI, ZPL, ZPL with a stray budget, K=2 MI,
K=2 ZPL, the quant_half surrogate} x M in {8, 128} x two seeds, T=60, and
of each case's validation report.  A refactor or speed-up of the release
path or of the audit must leave every digest unchanged;
a change that alters a transcript on purpose says why and re-pins it.  On
every private case the public replay must also rebuild the run's final
posterior byte for byte.
"""
import dataclasses
import hashlib
import json

import pytest

import helpers
from paczero.accounting import validate_transcript
from paczero.adversary import replay_posterior
from paczero.engine import TrainConfig, train
from paczero.harness import transcript_lines
from paczero.mechanism import MechanismSpec
from paczero.tasks import make_task

STEPS = 60
BUDGET = 0.33

TASKS = {
    "blobs": {"n_records": 32},
    "xor_mlp": {"n_records": 32},
    "quadratic": {},
}

VARIANTS = {
    "mi": {"variant": "paczero_mi", "mi_total": BUDGET},
    "zpl": {"variant": "paczero_zpl"},
    "zpl_stray_budget": {"variant": "paczero_zpl", "mi_total": BUDGET},
    "k2_mi": {
        "variant": "k_aggregate", "inner_variant": "paczero_mi", "k": 2,
        "mi_total": BUDGET,
    },
    "k2_zpl": {"variant": "k_aggregate", "inner_variant": "paczero_zpl", "k": 2},
    "quant_half": {"variant": "surrogate", "surrogate_mode": "quant_half"},
}

SUBSETS = (8, 128)
SEEDS = (0, 1)

PINS = {
    "blobs-mi-M8-s0": "64ccaf2ecc976b0c45fda17f9d2c97bd724cc8adc8948f25f27dcb7530b2e8ed",
    "blobs-mi-M8-s1": "29d4634743d66c45d9e86faa3ac3809d16e0f6536b41a3bb1f060e9ea93a4764",
    "blobs-mi-M128-s0": "3d24b60a750d7e6f462440e05680fb2be985244b0abff353aa587487889314c3",
    "blobs-mi-M128-s1": "246fa6b5f8c877db01f0fc504cfd1f284df70f49da0835d7426d715e4c04de4f",
    "blobs-zpl-M8-s0": "1402bbb6167e706a655090d163ec2ce93cb90cc6b0d5ad6478de0f4aed8b6bcf",
    "blobs-zpl-M8-s1": "3ba07bc86732082b2267fabddf44538c4cc6c5376d416dd7d7e40a4b580fe4cd",
    "blobs-zpl-M128-s0": "d84b967806f05ebe48604dd8491896fee58995084bcc7282657142029d6bbdb5",
    "blobs-zpl-M128-s1": "e41b547ea39688178b41c36bcf66bccf702cee1b3851d032311ab01f0bb00366",
    "blobs-zpl_stray_budget-M8-s0": "3ec42fb5b137ff5d2dd243347f12d06cdfc4c9c8b00235d2c4fe9a9dbd68dbdc",
    "blobs-zpl_stray_budget-M8-s1": "2dc34708f590c473f5ddf03ea33c0f948a5b6dd64c637abb5a23c85d344bf3fe",
    "blobs-zpl_stray_budget-M128-s0": "e87a2ad2d0e8a8d22d213b133bd3aefdc1821d9d1d9d86241e291d773bc7ef53",
    "blobs-zpl_stray_budget-M128-s1": "405b87bb435db3c9683642ea0ab6a187066b21a31c6593dda7539ae71343a36c",
    "blobs-k2_mi-M8-s0": "0ed6e5da163d86bccb2cc66aa8dcf76345f2d631f29dd395f0b5a9e1e2e50f0c",
    "blobs-k2_mi-M8-s1": "7d89f1c6336d0bd7a907ebfa3160fa2e63ed4bbaf38c241b39cd789a7afa9999",
    "blobs-k2_mi-M128-s0": "083c8a80d39168ca1dca7dfb70a3c40df22b357c790bca258aa3c3d8b8bda365",
    "blobs-k2_mi-M128-s1": "95795cb0fb7ce9797f6eb157a66d543c65253dd816d098c7244eb176016dca5d",
    "blobs-k2_zpl-M8-s0": "c9c20c33d6e5a10866f679e62bfcecf49d70616ce5795dfeaeb77fa3a6507fda",
    "blobs-k2_zpl-M8-s1": "c71dff282cd2eb45d132e61bf41e1372b4832c7d347a9023c2c1f94d7e0e555b",
    "blobs-k2_zpl-M128-s0": "1773ae0359c7bf402564cb7191a6c4e308020bc20f1f09d2110eab329c92cb3c",
    "blobs-k2_zpl-M128-s1": "d12b8bdb64cced535ba07141197ca6e89e8b64cf1fe015b53a46a9a2fd13121b",
    "blobs-quant_half-M8-s0": "7a0719b0dc312cd17904e8440c8c4d69e6406c1697db0b8ccd370b8e4386c60b",
    "blobs-quant_half-M8-s1": "4cb5a786a9fca660b74d20e3d58e44314b20087d00bd1cb1b1d54931b25f351d",
    "blobs-quant_half-M128-s0": "7b66d812586cc3e6677d2228dfbec57839de60e75e11ecdfb628bdb7de22e6d9",
    "blobs-quant_half-M128-s1": "80e5b337b038720dba8881e72d80fee744a3ad92fb9469f16baea782237370cc",
    "xor_mlp-mi-M8-s0": "edbc72e206bd93dffaf931aa240de5eb4a9a6a21c0788e613aa8647a7da8ef62",
    "xor_mlp-mi-M8-s1": "54d2600988452361c33c32887e0b506f1cef12cbb1e9e573c44057827caaffde",
    "xor_mlp-mi-M128-s0": "74639115fffac68e4eb2be66480d4cedd4e92dd1cfa8c5173ed977810c55adcd",
    "xor_mlp-mi-M128-s1": "6e9daf52d4f9ea7cac0511e2bce1973a673d9a2c335a9ede1afeb9f6bfdee2ac",
    "xor_mlp-zpl-M8-s0": "95785bf12ac84a2ce1996e866d33262a7a7443d4b5c28ec0956ceb979ef824ad",
    "xor_mlp-zpl-M8-s1": "9fa57e355807ad3fe7a7b33a40320fe7b06a61dda24b71ba4293591ecea8d750",
    "xor_mlp-zpl-M128-s0": "1d6146111c2b1d01f1bbd974b354ea4e094d49ff90d27f452558239c75dd7653",
    "xor_mlp-zpl-M128-s1": "0b661d32af279b91f700608380644bdae39413620362d6baf4d184f3e52ea73b",
    "xor_mlp-zpl_stray_budget-M8-s0": "ea022e17aee376f0bc6f2bcc7961c8e4e70dfe818c8000768e18faa7c2a6014f",
    "xor_mlp-zpl_stray_budget-M8-s1": "ec3d35fd0fd3068df99b2a28f908372c456c1905fb6e5d774c67c6d6e7bbac4b",
    "xor_mlp-zpl_stray_budget-M128-s0": "59bc8b91d34d5571508a81be97b447e3035a2058b2cdf9f0c09dd5f63a6d37c1",
    "xor_mlp-zpl_stray_budget-M128-s1": "a9cae6ead5a94cad2ac7360dbb95f3521c579ed76e78351d3e9f71e4107a9c95",
    "xor_mlp-k2_mi-M8-s0": "3446e52c486e53e7f7223010bf9c41716f0899f3ed4b12293027634c16f54277",
    "xor_mlp-k2_mi-M8-s1": "16b0b5610f346c875715333bb8a20d6f44aaf57d0e18a6be39955c5d19ef3043",
    "xor_mlp-k2_mi-M128-s0": "5a38c6cc7d2140ef25a100c853c351a5490aa91a55d0eab7e3e7253f682a4fc6",
    "xor_mlp-k2_mi-M128-s1": "80e880449d8855ff83bc8bb4af45efa2c7f067455a93bfaa33eda2d35c343229",
    "xor_mlp-k2_zpl-M8-s0": "f2f620c767e7b91cc434adfa151f5d323d49f4ad0cd919738916b0c902921352",
    "xor_mlp-k2_zpl-M8-s1": "0388a65be7c2090745f0eeb057ab7ef7f69a47760ac1c2e6e533acfdb6f1e6d2",
    "xor_mlp-k2_zpl-M128-s0": "b6fedd153f8918dd382711297169f8aa67724f543c770a47930d91e83fdc2e33",
    "xor_mlp-k2_zpl-M128-s1": "f270daa003529ccebf7ac75abf0eda76cc940c086ebe3e643bac7691a13f931a",
    "xor_mlp-quant_half-M8-s0": "2dda5b5644330bfd1f4e93a6d301b4e4d2e9668aed896bc59a148842745ea834",
    "xor_mlp-quant_half-M8-s1": "39916dd31bc42e9b538f411e3bac7a2f13fa9599c6c5ea8fdf895321cf02a4cd",
    "xor_mlp-quant_half-M128-s0": "d1a65601456e8924f6384c1e79e7b9bacb0681de8371ff8aa579f0b85952baa9",
    "xor_mlp-quant_half-M128-s1": "2dd77841575618834b480c40ceea26328b095209e759f828a4af55bdc253cac3",
    "quadratic-mi-M8-s0": "d4bec34c6905578a073d57cbe3cb733097ac76a8319e337aa6f592a674256452",
    "quadratic-mi-M8-s1": "d93dceefc4a0322f315e34985954fec2a456f475605b9e3c1d71727d75f8091c",
    "quadratic-mi-M128-s0": "88abe495a05b3f0adbf91c6e15ba8bae0b152da901a00a81296dcc32d5f7a9ef",
    "quadratic-mi-M128-s1": "205701df90a5e06879ccd37b81ef43e1c63f75b99ad449cebdfa342cd960341c",
    "quadratic-zpl-M8-s0": "755680945fef07bf8c1c1a5b66398fead60c1483f1066f464be60c2b1bc5c537",
    "quadratic-zpl-M8-s1": "5f8fb33068196308b309a43ae24cf2e7147c833e2f3836fb1e42742027d8cd4d",
    "quadratic-zpl-M128-s0": "35eca8ffdd3a9c7cbc99f3002c59c13c9be60ed2d4a72b356bfaef8d2c1d6306",
    "quadratic-zpl-M128-s1": "d5a8815843f289e8cac398cbf581466c5cc2d3cb8863b5a45bf1526c52bc3f8c",
    "quadratic-zpl_stray_budget-M8-s0": "c01736da4177a95fd6331c391519a8076b77dc0efda28f0ad1797cf66a838d41",
    "quadratic-zpl_stray_budget-M8-s1": "ec7d8358bee2a6a2745e00df50b8b851c01d49594f8eae53d9f3aaf0c1b5f2d1",
    "quadratic-zpl_stray_budget-M128-s0": "c73287d25e1d2532b286c90131c3a1aa9be5d7dd3a9a7c85dd06dd8d371d7079",
    "quadratic-zpl_stray_budget-M128-s1": "7cf13f2d03288fc85a25508370e39776eb2439e4c8a24b20841e913c073087a1",
    "quadratic-k2_mi-M8-s0": "723f93cc59d7a4f0f841f0814cf4810a5970f798e6ce1d1d7c52018b1377d1a4",
    "quadratic-k2_mi-M8-s1": "23d31bb1ca90e52087bd2972447fb8a0f2a594b5be25988e2bf08cea6474d81c",
    "quadratic-k2_mi-M128-s0": "5547cd23efad2cb602e9cef1f2305edaae7ff9b8523ddb72dd41f4afa9d14f80",
    "quadratic-k2_mi-M128-s1": "03e7e1a79c9ae7a34aa61ec640433d6865a3b8169488157b6a526c9f079b995e",
    "quadratic-k2_zpl-M8-s0": "d0dbbce967b9aa2f643adf09e9ff2b2773518e421b9b7d762240bf5a55927f4f",
    "quadratic-k2_zpl-M8-s1": "408e2828d3be1f172010f4c381567ea56e9daacfc0ea671f2707a5badd7ca769",
    "quadratic-k2_zpl-M128-s0": "4c747297696ead07cb01d2d4e4ee6a36256ceacc210309883ddbcdc2a5edbfb8",
    "quadratic-k2_zpl-M128-s1": "708a0e356f17a63a2e1eb37d6a57b18a57ae4d8d9a78f256a263235908c99a99",
    "quadratic-quant_half-M8-s0": "2245bea561b8909a9cf480229e6def231ea16bd0ae9fe627fefa687d9533bb0a",
    "quadratic-quant_half-M8-s1": "5a880c045636a15e0da6b4abf4f50c60622e9c88c0df819752f7a14abbac4eb0",
    "quadratic-quant_half-M128-s0": "f7c5327c60c957c88265a1828b1a7ec203fa24200979c4e5abeb5bb6bfee9919",
    "quadratic-quant_half-M128-s1": "6cd785c2aad578e4d09b0f64625eb78a0ff1a45e4b8ac05be80fbfa16787f64b",
}

# SHA-256 of each case's ValidationReport (``report_digest``), pinned so that
# a faster audit must reach the same verdict, totals and message.
REPORT_PINS = {
    "blobs-mi-M8-s0": "350eb71bcb7e4ae1a57094a4eb59aa1e6b0b0a9d45307769bebd94ee656dc209",
    "blobs-mi-M8-s1": "e7adf0b751e1b83e19ddf05429a9c06dcd5cc5d8ab86a483d23d02f243f7133f",
    "blobs-mi-M128-s0": "5ad0e7e86b181ebfeb29cf07804fad8736b78e68f295bfea256b568aaabe3335",
    "blobs-mi-M128-s1": "c8592c92bf87ad18760d94811056c0df6a98abf3abd3f4766fe494dcff453b89",
    "blobs-zpl-M8-s0": "d55f19baebd1739f3682a1b68803a4610fa7cf4ce66ea70b63d9fea5ca53cde3",
    "blobs-zpl-M8-s1": "085176be2bd88b3b2ced85bce683b1aac814b4e547e2b973800d0b21fbd61b1c",
    "blobs-zpl-M128-s0": "66edf463a56e9cf973336cc0c54a3aa27a1d9fa44e7f025682b34f1a399c2890",
    "blobs-zpl-M128-s1": "769ff5384b1ac188c358a708630e3bb773d6218a3b75bc1c5c7dd51b26cfc53f",
    "blobs-zpl_stray_budget-M8-s0": "d55f19baebd1739f3682a1b68803a4610fa7cf4ce66ea70b63d9fea5ca53cde3",
    "blobs-zpl_stray_budget-M8-s1": "085176be2bd88b3b2ced85bce683b1aac814b4e547e2b973800d0b21fbd61b1c",
    "blobs-zpl_stray_budget-M128-s0": "66edf463a56e9cf973336cc0c54a3aa27a1d9fa44e7f025682b34f1a399c2890",
    "blobs-zpl_stray_budget-M128-s1": "769ff5384b1ac188c358a708630e3bb773d6218a3b75bc1c5c7dd51b26cfc53f",
    "blobs-k2_mi-M8-s0": "4f51584ba543aa2d793758629ff3d88d407cc385c82de5550c1dbd1335102125",
    "blobs-k2_mi-M8-s1": "e948693fcdb892d0eff2099392a87b8fa1bea78356edbae18ce2a80951062287",
    "blobs-k2_mi-M128-s0": "388c2bc8c58011a7b83951e6850a3ac54f492bcdbc6075702b3482611f3fab46",
    "blobs-k2_mi-M128-s1": "bafb8697b19363cb0045fd0b4b97e93c3c6acbf3559d5d105aeeb0a45a8968ee",
    "blobs-k2_zpl-M8-s0": "ad0ab288d701ca4a2dddfa2cf531d0f979090c2182b6a0af7ade122fc589676d",
    "blobs-k2_zpl-M8-s1": "1bae592d282b191fde6cda244ff4886b08de4e4ad7ca0b804e37d6b94f0f309f",
    "blobs-k2_zpl-M128-s0": "bd7a95aca4266369918a7bf0367086a5106793d3688fc600b313d466f822815a",
    "blobs-k2_zpl-M128-s1": "00c479a1d2d6e39235b9387e43e8ce024ba5fb9e85681d7628effe0c377b7767",
    "blobs-quant_half-M8-s0": "10ad093a1c317cb01bdbd439c751d8858dee5c34a20bf2f4d94eabbaee6964c7",
    "blobs-quant_half-M8-s1": "10ad093a1c317cb01bdbd439c751d8858dee5c34a20bf2f4d94eabbaee6964c7",
    "blobs-quant_half-M128-s0": "10ad093a1c317cb01bdbd439c751d8858dee5c34a20bf2f4d94eabbaee6964c7",
    "blobs-quant_half-M128-s1": "10ad093a1c317cb01bdbd439c751d8858dee5c34a20bf2f4d94eabbaee6964c7",
    "xor_mlp-mi-M8-s0": "37e3c929cdce1e026e4e53857cee56ca2fb5d932817866281ebe7cbf53a24a2b",
    "xor_mlp-mi-M8-s1": "93ff8cf3fb290b93700fbbbc17ffe977123165dcda40b232efe9b5c2f7bbec79",
    "xor_mlp-mi-M128-s0": "335276f09fab10590ceec4805d01adf0cd697ba49f7296836360fe2dbeebb82f",
    "xor_mlp-mi-M128-s1": "cc6633f18b533f63b507470e0394b4e66b67615880c6dc21ad1a44c4dd535875",
    "xor_mlp-zpl-M8-s0": "0d32d9670622688d02a3d294d806ed3fe57cade070e3f9d6b028f9c566c6b865",
    "xor_mlp-zpl-M8-s1": "b1570221f004a03508bb324f2cf5ccbfb95b2cb3cd492e4e70c98d03c13ce815",
    "xor_mlp-zpl-M128-s0": "a1ef0e8bcf35c01900916c36b56e8c912708a7aac7a931822474f0be2ed05782",
    "xor_mlp-zpl-M128-s1": "a1ef0e8bcf35c01900916c36b56e8c912708a7aac7a931822474f0be2ed05782",
    "xor_mlp-zpl_stray_budget-M8-s0": "0d32d9670622688d02a3d294d806ed3fe57cade070e3f9d6b028f9c566c6b865",
    "xor_mlp-zpl_stray_budget-M8-s1": "b1570221f004a03508bb324f2cf5ccbfb95b2cb3cd492e4e70c98d03c13ce815",
    "xor_mlp-zpl_stray_budget-M128-s0": "a1ef0e8bcf35c01900916c36b56e8c912708a7aac7a931822474f0be2ed05782",
    "xor_mlp-zpl_stray_budget-M128-s1": "a1ef0e8bcf35c01900916c36b56e8c912708a7aac7a931822474f0be2ed05782",
    "xor_mlp-k2_mi-M8-s0": "8abcd177a1fd1c3022f1c3c11e8530ea8b6f84768caae44d7f79d0024c16b46f",
    "xor_mlp-k2_mi-M8-s1": "d6517c1ee848f5c6168172b6534e0cd3879951c573fba33b3fea647de60b8886",
    "xor_mlp-k2_mi-M128-s0": "f11e54e561dbfadd362bd3ec4df4aac66dcd91349e458fb280e2d85789bd8701",
    "xor_mlp-k2_mi-M128-s1": "430fd20ccba1e738dfd1c6aa44efb45fb35303fcdffba9dd26d8783d773fbf8b",
    "xor_mlp-k2_zpl-M8-s0": "95ec857e1817bd047939ef10d61b07e32a7bce329a666ab9b134d6c444a7afd4",
    "xor_mlp-k2_zpl-M8-s1": "44bb0c2ecf412068a3ebb68332956bec3d26fcb5a17dd28e26caecf05081d298",
    "xor_mlp-k2_zpl-M128-s0": "7b737a7630293e49877a94dfab2973d5de7912c5ebbcd6a69ad45513fee451c4",
    "xor_mlp-k2_zpl-M128-s1": "7b737a7630293e49877a94dfab2973d5de7912c5ebbcd6a69ad45513fee451c4",
    "xor_mlp-quant_half-M8-s0": "10ad093a1c317cb01bdbd439c751d8858dee5c34a20bf2f4d94eabbaee6964c7",
    "xor_mlp-quant_half-M8-s1": "10ad093a1c317cb01bdbd439c751d8858dee5c34a20bf2f4d94eabbaee6964c7",
    "xor_mlp-quant_half-M128-s0": "10ad093a1c317cb01bdbd439c751d8858dee5c34a20bf2f4d94eabbaee6964c7",
    "xor_mlp-quant_half-M128-s1": "10ad093a1c317cb01bdbd439c751d8858dee5c34a20bf2f4d94eabbaee6964c7",
    "quadratic-mi-M8-s0": "77cf707cdb180c700fc85061117dc22b7acaa4fe9d26f9c43c52ba4083e4c12a",
    "quadratic-mi-M8-s1": "b5cbe9314b7e265fce28245a318da15cf2518e31c075d611a417b035ed6d6531",
    "quadratic-mi-M128-s0": "348acadb8826239111d1bdd94e9cc6fea2f35c6232f6e8a95e340e73d85253a3",
    "quadratic-mi-M128-s1": "e58630fac5bdff7b62686118a4e81394ffc13663d73c24ebd2c7cea24ed23d00",
    "quadratic-zpl-M8-s0": "f5a71be6fa37c853aa26ad8eb8cdf8dfc0d1e8db0b65ca45a5cd3eadc612ed4a",
    "quadratic-zpl-M8-s1": "1612dadaa100ff92a9883b04461799bfdc93fd27cfc1ad9664d24d76f9ac255b",
    "quadratic-zpl-M128-s0": "ed71d8c99f1565e2a98deb415c95fa56bb7be41753807d219bc25896b5862235",
    "quadratic-zpl-M128-s1": "d55f19baebd1739f3682a1b68803a4610fa7cf4ce66ea70b63d9fea5ca53cde3",
    "quadratic-zpl_stray_budget-M8-s0": "f5a71be6fa37c853aa26ad8eb8cdf8dfc0d1e8db0b65ca45a5cd3eadc612ed4a",
    "quadratic-zpl_stray_budget-M8-s1": "1612dadaa100ff92a9883b04461799bfdc93fd27cfc1ad9664d24d76f9ac255b",
    "quadratic-zpl_stray_budget-M128-s0": "ed71d8c99f1565e2a98deb415c95fa56bb7be41753807d219bc25896b5862235",
    "quadratic-zpl_stray_budget-M128-s1": "d55f19baebd1739f3682a1b68803a4610fa7cf4ce66ea70b63d9fea5ca53cde3",
    "quadratic-k2_mi-M8-s0": "50994adfbeb3a8ffcb66679fae0f61ee460474e0991a2df6b571779c27ad33b7",
    "quadratic-k2_mi-M8-s1": "3b34af5e87cfab50f042bdda2c9c032d79e57a3d2cbec9fc6617a09b2109a581",
    "quadratic-k2_mi-M128-s0": "a52012ec1cd01923caee69c9241627d471d0278f16a82b02b1ec509020f47d69",
    "quadratic-k2_mi-M128-s1": "d1a1fba8f25cc00eb5dce5f6b95aa43e3f2be271d76c6670341bcafffbc685e5",
    "quadratic-k2_zpl-M8-s0": "95a36bda4e4cff49645fb6a38692ee4b98c97805eb2106161d8e18cbfa2eedff",
    "quadratic-k2_zpl-M8-s1": "8ac1245f74523a9fc0da57ec20d3c4f52f783e5190dfb304f92542787d9aece0",
    "quadratic-k2_zpl-M128-s0": "fb93cad904e18f8bd39213e048f191790386757244dd60be5a8de79a5df49ece",
    "quadratic-k2_zpl-M128-s1": "f2a44378b3780550a13ade479c3acde0794d9a295f891e4e18ce38992d9ad46c",
    "quadratic-quant_half-M8-s0": "10ad093a1c317cb01bdbd439c751d8858dee5c34a20bf2f4d94eabbaee6964c7",
    "quadratic-quant_half-M8-s1": "10ad093a1c317cb01bdbd439c751d8858dee5c34a20bf2f4d94eabbaee6964c7",
    "quadratic-quant_half-M128-s0": "10ad093a1c317cb01bdbd439c751d8858dee5c34a20bf2f4d94eabbaee6964c7",
    "quadratic-quant_half-M128-s1": "10ad093a1c317cb01bdbd439c751d8858dee5c34a20bf2f4d94eabbaee6964c7",
}

CASES = [
    f"{task}-{variant}-M{m}-s{seed}"
    for task in TASKS for variant in VARIANTS for m in SUBSETS for seed in SEEDS
]


PRIVATE_CASES = [case for case in CASES if "-quant_half-" not in case]


def train_case(case: str):
    task_name, variant, m, seed = case.split("-")
    task = make_task(task_name, **TASKS[task_name])
    spec = MechanismSpec(n_subsets=int(m[1:]), clip=1.0, **VARIANTS[variant])
    config = TrainConfig(
        steps=STEPS, learning_rate=0.05, seed=int(seed[1:]), dev_eval_interval=20
    )
    return task, train(task, config, spec)


def run_case(case: str):
    return train_case(case)[1].transcript


def digest(transcript) -> str:
    text = "\n".join(transcript_lines(transcript)) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", CASES)
def test_transcript_digest(case):
    transcript = run_case(case)
    assert digest(transcript) == PINS[case]


def test_threads_match_the_serial_digests():
    # two threads of one process, started together, train the MI cases that
    # calibrate most steps; each transcript must be its serial digest
    cases = ["blobs-mi-M128-s0", "blobs-mi-M128-s1", "blobs-k2_mi-M128-s0"]
    got = helpers.run_together(
        lambda: [digest(run_case(case)) for case in cases],
        lambda: [digest(run_case(case)) for case in reversed(cases)],
    )
    assert got == [[PINS[case] for case in cases], [PINS[case] for case in reversed(cases)]]


def report_digest(report) -> str:
    text = json.dumps(dataclasses.asdict(report), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", CASES)
def test_transcript_validates(case):
    report = validate_transcript(run_case(case))
    assert report.ok, report.message
    assert report_digest(report) == REPORT_PINS[case]


@pytest.mark.parametrize("case", PRIVATE_CASES)
def test_replay_matches_final_posterior(case):
    # the public replay's block signs must fold to the mechanism's own
    # posterior, byte for byte
    task, result = train_case(case)
    probs = replay_posterior(result.transcript, result.design, task)
    assert probs.tobytes() == result.final_posterior.tobytes()
