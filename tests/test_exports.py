import nestrad
from nestrad import caps, contfn, kappa, nested, seqspec, ufunc


def test_package_exports_every_module_export():
    owners = {
        name: module
        for module in (caps, contfn, kappa, nested, seqspec, ufunc)
        for name in module.__all__
    }
    assert sorted(nestrad.__all__) == sorted(owners)
    for name, module in owners.items():
        assert getattr(nestrad, name) is getattr(module, name), name
