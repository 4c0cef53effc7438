#include <stdio.h>

int d;

int main(void) {
    d = 8;
    {
        int b = 2;
        d = b;
    }
    return 0;
}
